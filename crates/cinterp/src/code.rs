//! Flat code: the instruction set the interpreter runs, and the emitter that
//! lowers the slot-resolved IR of [`crate::compile`] into it.
//!
//! A program is one `Vec<Op>`: the global declarations, then [`Op::Main`],
//! then every function body at its entry point. Control flow is jumps to
//! absolute positions; expressions push and pop [`Value`]s on an operand
//! stack; an lvalue pushes a place on a place stack for the op that reads or
//! writes it. Nothing recurses at run time — a user call pushes a frame
//! record and jumps — so the Rust stack a rank runs on does not grow with
//! the program.
//!
//! The emitter keeps, op for op, the semantics that
//! `tests/fixtures/cinterp_behaviour.tsv` records:
//!
//! * **Steps.** One [`Op::Tick`] before each statement and one per loop
//!   iteration once its test passes; ticks with nothing between them merge
//!   into one `Tick(n)` unless a jump lands between them, and a loop's back
//!   edge spends the ticks at its top itself ([`Op::Loop`]).
//! * **Order.** Operands run in one fixed order: an assignment's right
//!   side before its target's index, an MPI argument's conversion right
//!   after it is evaluated (so a bad count fails before the next argument
//!   runs), `&&`, `||` and `?:` by jumps.
//! * **Lines.** An op whose error names a line carries it; expression ops
//!   report line 0.
//! * **Fused ops.** A dispatch is most of what a step costs, so the usual
//!   shapes run as one op each: a variable or constant as the right operand
//!   of a binary operator, a loop test of a variable against a variable or
//!   a constant, and `v = w` or `v op= w` of two variables.
//! * **Blocks.** A block or `for` that declares something marks the stack
//!   on entry and releases it on exit ([`Op::Enter`], [`Op::Leave`]);
//!   `break` and `continue` leave the marked blocks they jump out of, and a
//!   return releases the whole frame. A block that declares nothing has
//!   nothing to release and gets no mark, except in unit-test builds, where
//!   every block opens a scope of the test-only name chain.

use crate::builtins::MathFn;
use crate::compile::{
    Block, Call, Callee, Decl, Envelope, Expr, ForInit, Function, Init, Lvalue, Mpi, MpiDtype,
    Named, Param, PrintfOperand, Stmt, VarRef,
};
use crate::error::InterpError;
use crate::machine::{CType, Value};
use mpirical_cparse::BinOp;
use mpirical_sim::ReduceOp;

/// One instruction. Jump targets are absolute positions in [`Code::ops`];
/// `line` is the line the op's errors report.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    // -- statements --------------------------------------------------------
    /// Spend `n` steps of the budget.
    Tick(u32),
    /// Enter a block that declares: mark the stack.
    Enter,
    /// Leave `n` marked blocks, releasing what they declared.
    Leave(u32),
    Jump(u32),
    /// A loop's back edge: spend the `ticks` steps of the loop's top — the
    /// iteration's and its first statements' — and jump past them to `to`.
    Loop {
        to: u32,
        ticks: u32,
    },
    /// Pop; if it is true, [`Op::Loop`].
    LoopIfTrue {
        to: u32,
        ticks: u32,
    },
    /// [`Op::LoopIfTrue`] on `lhs op rhs` of two variables or a variable and
    /// a constant (the usual loop test).
    LoopVarVar {
        lhs: VarRef,
        op: BinOp,
        rhs: VarRef,
        to: u32,
        ticks: u16,
    },
    LoopVarInt {
        lhs: VarRef,
        op: BinOp,
        rhs: i32,
        to: u32,
        ticks: u16,
    },
    /// Pop; jump if it is false.
    JumpIfFalse(u32),
    /// Discard the top value.
    Pop,
    /// Return the popped value from the running call.
    Return,
    /// Return `0` (also a `break` or `continue` outside any loop).
    ReturnVoid,
    /// Fail with [`Code::raises`]`[i]`.
    Raise(u32),
    /// Enter `main` after the globals have been declared.
    Main,

    // -- declarations ------------------------------------------------------
    /// Pop the next dimension of the array being declared.
    Dim {
        line: u32,
    },
    /// Allocate and bind [`Code::decls`]`[i]`; if it has an initializer,
    /// push its storage as the initializer's cursor.
    Declare(u32),
    /// Push the cursor of element `index` of the cursor on top.
    InitAt {
        index: u32,
        ctype: CType,
    },
    /// Pop a value and store it at the cursor on top, which it pops too.
    InitStore {
        ctype: CType,
        line: u32,
    },
    /// Pop the cursor of a finished initializer list.
    InitPop,

    // -- expressions -------------------------------------------------------
    Int(i64),
    Float(f64),
    Ptr(usize),
    /// Push the value of a variable.
    Load(VarRef),
    /// Pop a value into a variable (combined with it under `op`); push the
    /// variable's new value if `keep`.
    AssignVar {
        var: VarRef,
        op: Option<BinOp>,
        keep: bool,
    },
    /// [`Op::AssignVar`] of the value of variable `src`, not kept.
    AssignVarVar {
        var: VarRef,
        op: Option<BinOp>,
        src: VarRef,
    },
    /// `++`/`--` of a variable; push the old (`post`) or new value if `keep`.
    IncDecVar {
        var: VarRef,
        delta: i8,
        post: bool,
        keep: bool,
    },
    /// Pop a place, push its value.
    LoadPlace,
    /// Pop a place, push its address.
    AddrOf,
    /// [`Op::AssignVar`] on a popped place (the value is under it).
    Assign {
        op: Option<BinOp>,
        keep: bool,
    },
    /// [`Op::IncDecVar`] on a popped place.
    IncDec {
        delta: i8,
        post: bool,
        keep: bool,
    },
    Deref,
    Neg,
    Not,
    BitNot,
    /// Pop; if it is false, push `0` and jump (the left side of `&&`).
    AndThen(u32),
    /// Pop; if it is true, push `1` and jump (the left side of `||`).
    OrElse(u32),
    /// Pop; push its truth as `0` or `1`.
    Truth,
    Binary(BinOp),
    /// [`Op::Binary`] with a constant or a variable as its right operand.
    BinaryInt {
        op: BinOp,
        rhs: i64,
    },
    BinaryFloat {
        op: BinOp,
        rhs: f64,
    },
    BinaryVar {
        op: BinOp,
        rhs: VarRef,
    },
    /// Push `lhs op rhs` of a variable and a constant or another variable.
    VarInt {
        lhs: VarRef,
        op: BinOp,
        rhs: i64,
    },
    VarFloat {
        lhs: VarRef,
        op: BinOp,
        rhs: f64,
    },
    VarVar {
        lhs: VarRef,
        op: BinOp,
        rhs: VarRef,
    },
    Cast {
        to_float: bool,
    },

    // -- places --------------------------------------------------------------
    /// Push the place a variable names.
    Place(VarRef),
    /// Pop an index and a place; push the element.
    Index,
    /// Pop a pointer; push the cell it points at, typed as `pointee`'s
    /// element if the pointer is a plain variable.
    PlaceDeref(Option<VarRef>),
    /// Pop a place; push the `MPI_Status` field `offset` cells into it.
    Member(u32),

    // -- calls -------------------------------------------------------------
    /// Refuse a call past [`MAX_CALL_DEPTH`](crate::MAX_CALL_DEPTH) or
    /// [`MAX_LEVELS`](crate::MAX_LEVELS), before its arguments run.
    CallCheck {
        func: u32,
        line: u32,
    },
    /// Pop the arguments, enter the function, push a frame record.
    Call {
        func: u32,
        line: u32,
    },
    /// Convert the top value to a double / integer / pointer.
    ToF64 {
        line: u32,
    },
    ToI64 {
        line: u32,
    },
    ToPtr {
        line: u32,
    },
    /// Convert the top value to an MPI element count.
    Count {
        line: u32,
    },
    Math(MathFn),
    Srand,
    Rand,
    Abs,
    Exit,
    Malloc {
        elem: CType,
        line: u32,
    },
    /// Format [`Code::printfs`]`[i]` with its values popped.
    Printf(u32),

    // -- MPI (arguments converted and on the stack, first pushed deepest) ---
    CommRank {
        line: u32,
    },
    CommSize {
        line: u32,
    },
    Wtime,
    Barrier,
    Abort,
    /// Pops `buf, count, dest, tag`.
    Send {
        dtype: MpiDtype,
        line: u32,
    },
    /// Pops `buf, count, source, tag`; pushes the status (source, tag,
    /// count) if `status`.
    Recv {
        dtype: MpiDtype,
        status: bool,
        line: u32,
    },
    /// Pops a status pointer and the status under it, and writes one into
    /// the other.
    WriteStatus {
        line: u32,
    },
    /// Pops a request pointer and marks it complete.
    Complete {
        line: u32,
    },
    /// Pops `buf, count, root`.
    Bcast {
        dtype: MpiDtype,
        line: u32,
    },
    /// Pops `send, count[, root]`; a rank that receives nothing jumps to
    /// `skip`, one that does keeps its result for [`Op::WriteBuf`].
    Reduce {
        dtype: MpiDtype,
        op: ReduceOp,
        rooted: bool,
        skip: u32,
        line: u32,
    },
    Gather {
        dtype: MpiDtype,
        rooted: bool,
        skip: u32,
        line: u32,
    },
    /// Pops a destination pointer and writes the kept result there.
    WriteBuf {
        line: u32,
    },
    /// With `count, recv, recv_count, root` on the stack: a rank other than
    /// the root pops them, receives its part and jumps to `skip`; the root
    /// falls through to evaluate its send buffer for [`Op::ScatterRoot`].
    ScatterBegin {
        dtype: MpiDtype,
        skip: u32,
        line: u32,
    },
    ScatterRoot {
        dtype: MpiDtype,
        line: u32,
    },
}

// Four ops to a cache line: every fused op is laid out to fit 16 bytes.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

/// A declarator, as [`Op::Declare`] executes it.
#[derive(Debug)]
pub(crate) struct DeclInfo {
    pub var: VarRef,
    pub ctype: CType,
    pub is_pointer: bool,
    /// Dimensions popped by the [`Op::Dim`]s before it.
    pub dims: u32,
    pub init: bool,
}

#[derive(Debug)]
pub(crate) struct PrintfInfo {
    pub fmt: Box<str>,
    /// String literals in place; each `None` is the next value popped.
    pub args: Vec<Option<Box<str>>>,
    pub values: usize,
    pub line: u32,
}

/// A function's entry point and what entering it binds.
#[derive(Debug)]
pub(crate) struct FunctionInfo {
    pub entry: u32,
    pub params: Vec<Param>,
    /// The name id of each local slot.
    pub local_names: Vec<u32>,
    /// The static frame depth [`MAX_LEVELS`](crate::MAX_LEVELS) sums (see
    /// `compile`'s `Function::levels`).
    pub levels: usize,
    pub line: u32,
}

/// The flat code of a whole program.
#[derive(Debug, Default)]
pub(crate) struct Code {
    pub ops: Vec<Op>,
    pub functions: Vec<FunctionInfo>,
    pub decls: Vec<DeclInfo>,
    pub printfs: Vec<PrintfInfo>,
    pub raises: Vec<InterpError>,
}

/// A loop being emitted: where `break` and `continue` jump, once known.
struct Loop {
    /// Marked blocks open when the loop body starts.
    scopes: u32,
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

/// Lowers the IR of one program into [`Code`].
#[derive(Default)]
pub(crate) struct Emit {
    code: Code,
    /// The position a jump lands on most recently bound: a tick emitted
    /// there may not merge into the op before it.
    landing: usize,
    loops: Vec<Loop>,
    /// Marked blocks open at this point of the function being emitted.
    scopes: u32,
}

/// Can executing `s` declare into the innermost enclosing block? A block or
/// `for` releases its own declarations; an unbraced `if` or loop body does
/// not.
fn declares(s: &Stmt) -> bool {
    match s {
        Stmt::Decl(_) => true,
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => declares(then_branch) || else_branch.as_deref().is_some_and(declares),
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => declares(body),
        _ => false,
    }
}

/// `Some(truth)` of a condition that is a constant.
fn constant(e: &Expr) -> Option<bool> {
    match e {
        Expr::Const(v) => Some(v.truthy()),
        _ => None,
    }
}

impl Emit {
    pub fn finish(self) -> Code {
        self.code
    }

    fn push(&mut self, op: Op) -> usize {
        self.code.ops.push(op);
        self.code.ops.len() - 1
    }

    /// The current position, as a jump target.
    fn here(&mut self) -> u32 {
        self.landing = self.code.ops.len();
        self.landing as u32
    }

    /// Point the jump at `at` to the current position.
    fn patch(&mut self, at: usize) {
        let to = self.here();
        match &mut self.code.ops[at] {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::AndThen(t)
            | Op::OrElse(t)
            | Op::Reduce { skip: t, .. }
            | Op::Gather { skip: t, .. }
            | Op::ScatterBegin { skip: t, .. } => *t = to,
            other => unreachable!("patching {other:?}"),
        }
    }

    fn tick(&mut self) {
        let len = self.code.ops.len();
        if len != self.landing {
            if let Some(Op::Tick(n)) = self.code.ops.last_mut() {
                *n += 1;
                return;
            }
        }
        self.push(Op::Tick(1));
    }

    fn raise(&mut self, e: &InterpError) {
        self.code.raises.push(e.clone());
        self.push(Op::Raise(self.code.raises.len() as u32 - 1));
    }

    /// The error of a named MPI argument that names the wrong thing, where
    /// the call reaches it.
    fn named<T: Copy>(&mut self, arg: &Named<T>, placeholder: T) -> T {
        match arg {
            Ok(v) => *v,
            Err(e) => {
                self.raise(e);
                placeholder
            }
        }
    }

    // -- program structure -------------------------------------------------

    pub fn globals(&mut self, globals: &[Decl]) {
        for d in globals {
            self.declaration(d);
        }
        self.push(Op::Main);
    }

    pub fn function(&mut self, f: Function) {
        self.scopes = 0;
        let entry = self.here();
        // The frame holds the body's declarations; only the test-only name
        // chain needs the body's own scope.
        self.block(&f.body, cfg!(test));
        self.push(Op::ReturnVoid);
        self.code.functions.push(FunctionInfo {
            entry,
            params: f.params,
            local_names: f.local_names,
            levels: f.levels,
            line: f.line,
        });
    }

    /// A block's statements, inside a marked scope if `marked`.
    fn block(&mut self, b: &Block, marked: bool) {
        if marked {
            self.push(Op::Enter);
            self.scopes += 1;
        }
        for s in &b.stmts {
            self.stmt(s);
        }
        if marked {
            self.push(Op::Leave(1));
            self.scopes -= 1;
        }
    }

    // -- statements ----------------------------------------------------------

    fn stmt(&mut self, s: &Stmt) {
        self.tick();
        match s {
            Stmt::Decl(d) => self.declaration(d),
            Stmt::Expr(Some(e)) => self.discard(e),
            Stmt::Expr(None) => {}
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                let skip = self.push(Op::JumpIfFalse(0));
                self.stmt(then_branch);
                match else_branch {
                    Some(e) => {
                        let end = self.push(Op::Jump(0));
                        self.patch(skip);
                        self.stmt(e);
                        self.patch(end);
                    }
                    None => self.patch(skip),
                }
            }
            // The condition sits below the body, so an iteration takes
            // one jump.
            Stmt::While { cond, body } => {
                let to_cond = self.push(Op::Jump(0));
                let top = self.iterations(body);
                self.patch(to_cond);
                self.loop_test(cond, top);
                self.end_loop();
            }
            Stmt::DoWhile { body, cond } => {
                let top = self.iterations(body);
                self.loop_test(cond, top);
                self.end_loop();
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let marked = cfg!(test) || matches!(init, ForInit::Decl(_)) || declares(body);
                if marked {
                    self.push(Op::Enter);
                    self.scopes += 1;
                }
                match init {
                    ForInit::None => {}
                    ForInit::Decl(d) => self.declaration(d),
                    ForInit::Expr(e) => self.discard(e),
                }
                let to_cond = self.push(Op::Jump(0));
                let top = self.iterations(body);
                if let Some(step) = step {
                    self.discard(step);
                }
                self.patch(to_cond);
                match cond {
                    Some(c) => self.loop_test(c, top),
                    None => self.loop_test(&Expr::Const(Value::Int(1)), top),
                }
                self.end_loop();
                if marked {
                    self.push(Op::Leave(1));
                    self.scopes -= 1;
                }
            }
            Stmt::Return(e) => match e {
                Some(e) => {
                    self.expr(e);
                    self.push(Op::Return);
                }
                None => {
                    self.push(Op::ReturnVoid);
                }
            },
            Stmt::Break => self.loop_exit(true),
            Stmt::Continue => self.loop_exit(false),
            Stmt::Block(b) => {
                let marked = cfg!(test) || b.stmts.iter().any(declares);
                self.block(b, marked);
            }
            Stmt::Raise(e) => self.raise(e),
        }
    }

    /// The top of a loop: one step per iteration, then the body. Opens the
    /// loop for `break` and `continue` and binds its `continue`s to the
    /// position after the body. Returns the top.
    fn iterations(&mut self, body: &Stmt) -> u32 {
        let top = self.here();
        self.loops.push(Loop {
            scopes: self.scopes,
            breaks: Vec::new(),
            continues: Vec::new(),
        });
        self.tick();
        self.stmt(body);
        let continues = std::mem::take(&mut self.loops.last_mut().expect("open loop").continues);
        for at in continues {
            self.patch(at);
        }
        top
    }

    /// Jump back to `top` while `cond` holds. The back edge spends the
    /// ticks at `top` itself and lands after them, saving a dispatch per
    /// iteration; `top` is only reached by the back edge or by falling into
    /// the first iteration of a `do`.
    fn loop_test(&mut self, cond: &Expr, top: u32) {
        let Op::Tick(ticks) = self.code.ops[top as usize] else {
            unreachable!("a loop's top is its iteration tick")
        };
        let to = top + 1;
        match constant(cond) {
            Some(true) => {
                self.push(Op::Loop { to, ticks });
            }
            Some(false) => {}
            None => {
                let small = u16::try_from(ticks).ok();
                let fused = match (cond, small) {
                    (Expr::Binary { op, lhs, rhs }, Some(ticks)) => match (&**lhs, &**rhs) {
                        (&Expr::Var(lhs), &Expr::Var(rhs)) => Some(Op::LoopVarVar {
                            lhs,
                            op: *op,
                            rhs,
                            to,
                            ticks,
                        }),
                        (&Expr::Var(lhs), &Expr::Const(Value::Int(rhs))) => {
                            i32::try_from(rhs).ok().map(|rhs| Op::LoopVarInt {
                                lhs,
                                op: *op,
                                rhs,
                                to,
                                ticks,
                            })
                        }
                        _ => None,
                    },
                    _ => None,
                };
                match fused {
                    Some(op) => {
                        self.push(op);
                    }
                    None => {
                        self.expr(cond);
                        self.push(Op::LoopIfTrue { to, ticks });
                    }
                }
            }
        }
    }

    /// Bind the innermost loop's `break`s here and close it.
    fn end_loop(&mut self) {
        let lp = self.loops.pop().expect("open loop");
        for at in lp.breaks {
            self.patch(at);
        }
    }

    /// `break` (or `continue`): leave the marked blocks inside the loop and
    /// jump. Outside any loop it ends the call as `return 0` would.
    fn loop_exit(&mut self, is_break: bool) {
        let Some(lp) = self.loops.last() else {
            self.push(Op::ReturnVoid);
            return;
        };
        let open = self.scopes - lp.scopes;
        if open > 0 {
            self.push(Op::Leave(open));
        }
        let at = self.push(Op::Jump(0));
        let lp = self.loops.last_mut().expect("open loop");
        if is_break {
            lp.breaks.push(at);
        } else {
            lp.continues.push(at);
        }
    }

    fn declaration(&mut self, d: &Decl) {
        for decl in &d.declarators {
            for dim in &decl.dims {
                match dim {
                    Some(e) => self.expr(e),
                    None => {
                        self.push(Op::Int(0));
                    }
                }
                self.push(Op::Dim { line: d.line });
            }
            self.code.decls.push(DeclInfo {
                var: decl.var,
                ctype: d.ctype,
                is_pointer: decl.is_pointer,
                dims: decl.dims.len() as u32,
                init: decl.init.is_some(),
            });
            self.push(Op::Declare(self.code.decls.len() as u32 - 1));
            if let Some(init) = &decl.init {
                self.init(init, d.ctype, d.line);
            }
        }
    }

    /// Initialize the cursor on top from `init`, consuming the cursor.
    fn init(&mut self, init: &Init, ctype: CType, line: u32) {
        match init {
            Init::Expr(e) => {
                self.expr(e);
                self.push(Op::InitStore { ctype, line });
            }
            Init::List(items) => {
                for (i, item) in items.iter().enumerate() {
                    self.push(Op::InitAt {
                        index: i as u32,
                        ctype,
                    });
                    self.init(item, ctype, line);
                }
                self.push(Op::InitPop);
            }
        }
    }

    // -- expressions ---------------------------------------------------------

    /// Evaluate `e` for its effects only.
    fn discard(&mut self, e: &Expr) {
        match e {
            Expr::Assign { op, target, rhs } => self.assign(*op, target, rhs, false),
            Expr::IncDec {
                target,
                delta,
                post,
            } => self.inc_dec(target, *delta, *post, false),
            Expr::Comma(lhs, rhs) => {
                self.discard(lhs);
                self.discard(rhs);
            }
            _ => {
                self.expr(e);
                self.push(Op::Pop);
            }
        }
    }

    /// Evaluate `e`, leaving its value on the stack.
    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Const(v) => {
                self.push(match *v {
                    Value::Int(i) => Op::Int(i),
                    Value::Double(d) => Op::Float(d),
                    Value::Ptr(p) => Op::Ptr(p),
                });
            }
            Expr::Var(var) => {
                self.push(Op::Load(*var));
            }
            Expr::Load(lv) => {
                self.place(lv);
                self.push(Op::LoadPlace);
            }
            Expr::AddrOf(lv) => {
                self.place(lv);
                self.push(Op::AddrOf);
            }
            Expr::IncDec {
                target,
                delta,
                post,
            } => self.inc_dec(target, *delta, *post, true),
            Expr::Deref(e) => self.unary(e, Op::Deref),
            Expr::Neg(e) => self.unary(e, Op::Neg),
            Expr::Not(e) => self.unary(e, Op::Not),
            Expr::BitNot(e) => self.unary(e, Op::BitNot),
            Expr::And(lhs, rhs) => self.short_circuit(lhs, rhs, Op::AndThen(0)),
            Expr::Or(lhs, rhs) => self.short_circuit(lhs, rhs, Op::OrElse(0)),
            Expr::Binary { op, lhs, rhs } => {
                let op = *op;
                if let Expr::Var(lhs) = **lhs {
                    let fused = match **rhs {
                        Expr::Const(Value::Int(rhs)) => Some(Op::VarInt { lhs, op, rhs }),
                        Expr::Const(Value::Double(rhs)) => Some(Op::VarFloat { lhs, op, rhs }),
                        Expr::Var(rhs) => Some(Op::VarVar { lhs, op, rhs }),
                        _ => None,
                    };
                    if let Some(fused) = fused {
                        self.push(fused);
                        return;
                    }
                }
                self.expr(lhs);
                match **rhs {
                    Expr::Const(Value::Int(rhs)) => self.push(Op::BinaryInt { op, rhs }),
                    Expr::Const(Value::Double(rhs)) => self.push(Op::BinaryFloat { op, rhs }),
                    Expr::Var(rhs) => self.push(Op::BinaryVar { op, rhs }),
                    _ => {
                        self.expr(rhs);
                        self.push(Op::Binary(op))
                    }
                };
            }
            Expr::Assign { op, target, rhs } => self.assign(*op, target, rhs, true),
            Expr::Cast { to_float, operand } => self.unary(
                operand,
                Op::Cast {
                    to_float: *to_float,
                },
            ),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                self.expr(cond);
                let to_else = self.push(Op::JumpIfFalse(0));
                self.expr(then_expr);
                let end = self.push(Op::Jump(0));
                self.patch(to_else);
                self.expr(else_expr);
                self.patch(end);
            }
            Expr::Comma(lhs, rhs) => {
                self.discard(lhs);
                self.expr(rhs);
            }
            Expr::Call(call) => self.call(call),
            Expr::Printf(p) => {
                let mut args = Vec::with_capacity(p.args.len());
                for a in &p.args {
                    args.push(match a {
                        PrintfOperand::Str(s) => Some(s.clone()),
                        PrintfOperand::Value(e) => {
                            self.expr(e);
                            None
                        }
                    });
                }
                let values = args.iter().filter(|a| a.is_none()).count();
                self.code.printfs.push(PrintfInfo {
                    fmt: p.fmt.clone(),
                    args,
                    values,
                    line: p.line,
                });
                self.push(Op::Printf(self.code.printfs.len() as u32 - 1));
            }
            Expr::Mpi(call) => self.mpi(&call.op, call.line),
            Expr::Raise(e) => self.raise(e),
        }
    }

    fn unary(&mut self, operand: &Expr, op: Op) {
        self.expr(operand);
        self.push(op);
    }

    fn short_circuit(&mut self, lhs: &Expr, rhs: &Expr, test: Op) {
        self.expr(lhs);
        let end = self.push(test);
        self.expr(rhs);
        self.push(Op::Truth);
        self.patch(end);
    }

    fn assign(&mut self, op: Option<BinOp>, target: &Lvalue, rhs: &Expr, keep: bool) {
        if let (Lvalue::Var(var), Expr::Var(src), false) = (target, rhs, keep) {
            self.push(Op::AssignVarVar {
                var: *var,
                op,
                src: *src,
            });
            return;
        }
        self.expr(rhs);
        match target {
            Lvalue::Var(var) => {
                self.push(Op::AssignVar {
                    var: *var,
                    op,
                    keep,
                });
            }
            _ => {
                self.place(target);
                self.push(Op::Assign { op, keep });
            }
        }
    }

    fn inc_dec(&mut self, target: &Lvalue, delta: i64, post: bool, keep: bool) {
        let delta = delta as i8;
        match target {
            Lvalue::Var(var) => {
                self.push(Op::IncDecVar {
                    var: *var,
                    delta,
                    post,
                    keep,
                });
            }
            _ => {
                self.place(target);
                self.push(Op::IncDec { delta, post, keep });
            }
        }
    }

    fn place(&mut self, lv: &Lvalue) {
        match lv {
            Lvalue::Var(var) => {
                self.push(Op::Place(*var));
            }
            Lvalue::Index { base, index } => {
                self.place(base);
                self.expr(index);
                self.push(Op::Index);
            }
            Lvalue::Deref { ptr, pointee } => {
                self.expr(ptr);
                self.push(Op::PlaceDeref(*pointee));
            }
            Lvalue::Member { base, offset } => {
                self.place(base);
                self.push(Op::Member(*offset as u32));
            }
            Lvalue::Raise(e) => self.raise(e),
        }
    }

    // -- calls -----------------------------------------------------------------

    /// Argument `i` of a builtin converted by `convert`; a missing one is 0.
    fn arg(&mut self, call: &Call, i: usize, convert: Op) {
        match call.args.get(i) {
            Some(e) => self.expr(e),
            None => {
                self.push(Op::Int(0));
            }
        }
        self.push(convert);
    }

    fn call(&mut self, call: &Call) {
        let line = call.line;
        let to_f64 = Op::ToF64 { line };
        let to_i64 = Op::ToI64 { line };
        match call.callee {
            Callee::User(func) => {
                self.push(Op::CallCheck { func, line });
                for a in &call.args {
                    self.expr(a);
                }
                self.push(Op::Call { func, line });
            }
            Callee::Math(f) => {
                self.arg(call, 0, to_f64);
                self.arg(call, 1, to_f64);
                self.push(Op::Math(f));
            }
            Callee::Srand => {
                self.arg(call, 0, to_i64);
                self.push(Op::Srand);
            }
            Callee::Rand => {
                self.push(Op::Rand);
            }
            Callee::Abs => {
                self.arg(call, 0, to_i64);
                self.push(Op::Abs);
            }
            Callee::Exit => {
                self.arg(call, 0, to_i64);
                self.push(Op::Exit);
            }
            Callee::Malloc(elem) => {
                self.arg(call, 0, to_i64);
                self.push(Op::Malloc { elem, line });
            }
        }
    }

    /// Evaluate `e` and convert it on the spot.
    fn converted(&mut self, e: &Expr, convert: Op) {
        self.expr(e);
        self.push(convert);
    }

    /// `buf, count, datatype, peer, tag`, each converted as it is read.
    fn envelope(&mut self, env: &Envelope, line: u32) -> MpiDtype {
        self.converted(&env.buf, Op::ToPtr { line });
        self.converted(&env.count, Op::Count { line });
        let dtype = self.named(&env.dtype, MpiDtype::Int);
        self.converted(&env.peer, Op::ToI64 { line });
        self.converted(&env.tag, Op::ToI64 { line });
        dtype
    }

    /// Write the status under the stack top through the pointer `arg`.
    fn write_status(&mut self, arg: &Expr, line: u32) {
        self.converted(arg, Op::ToPtr { line });
        self.push(Op::WriteStatus { line });
    }

    fn complete(&mut self, request: &Option<Expr>, line: u32) {
        if let Some(r) = request {
            self.converted(r, Op::ToPtr { line });
            self.push(Op::Complete { line });
        }
    }

    fn send(&mut self, env: &Envelope, line: u32) {
        let dtype = self.envelope(env, line);
        self.push(Op::Send { dtype, line });
    }

    fn recv(&mut self, env: &Envelope, status: &Option<Expr>, line: u32) {
        let dtype = self.envelope(env, line);
        self.push(Op::Recv {
            dtype,
            status: status.is_some(),
            line,
        });
        if let Some(st) = status {
            self.write_status(st, line);
        }
    }

    /// An MPI call: every binding leaves `MPI_SUCCESS` (or `MPI_Wtime` its
    /// time) on the stack.
    fn mpi(&mut self, call: &Mpi, line: u32) {
        let to_ptr = Op::ToPtr { line };
        let to_i64 = Op::ToI64 { line };
        let count = Op::Count { line };
        match call {
            Mpi::Nop => {}
            Mpi::CommRank(out) => {
                self.converted(out, to_ptr);
                self.push(Op::CommRank { line });
            }
            Mpi::CommSize(out) => {
                self.converted(out, to_ptr);
                self.push(Op::CommSize { line });
            }
            Mpi::Wtime => {
                self.push(Op::Wtime);
                return;
            }
            Mpi::Barrier => {
                self.push(Op::Barrier);
            }
            Mpi::Abort(code) => {
                self.converted(code, to_i64);
                self.push(Op::Abort);
            }
            Mpi::Send(send) => self.send(send, line),
            Mpi::Isend { send, request } => {
                // Buffered send completes immediately.
                self.send(send, line);
                self.complete(request, line);
            }
            Mpi::Recv { recv, status } => self.recv(recv, status, line),
            Mpi::Irecv { recv, request } => {
                self.recv(recv, &None, line);
                self.complete(request, line);
            }
            Mpi::Wait { status } => {
                // Requests complete eagerly; zero the status if provided.
                if let Some(status) = status {
                    for _ in 0..3 {
                        self.push(Op::Int(0));
                    }
                    self.write_status(status, line);
                }
            }
            Mpi::Sendrecv { send, recv, status } => {
                // Send side first (buffered, never blocks).
                self.send(send, line);
                self.recv(recv, status, line);
            }
            Mpi::Bcast {
                buf,
                count: n,
                dtype,
                root,
            } => {
                self.converted(buf, to_ptr);
                self.converted(n, count);
                let dtype = self.named(dtype, MpiDtype::Int);
                self.converted(root, to_i64);
                self.push(Op::Bcast { dtype, line });
            }
            Mpi::Reduce {
                send,
                recv,
                count: n,
                dtype,
                op,
                root,
            } => {
                self.converted(send, to_ptr);
                self.converted(n, count);
                let dtype = self.named(dtype, MpiDtype::Int);
                let op = self.named(op, ReduceOp::Sum);
                if let Some(root) = root {
                    self.converted(root, to_i64);
                }
                if dtype == MpiDtype::Byte {
                    self.raise(&InterpError::Unsupported {
                        detail: "reduce on MPI_BYTE".into(),
                        line,
                    });
                    return;
                }
                // Only a rank that receives the result evaluates where to.
                let skip = self.push(Op::Reduce {
                    dtype,
                    op,
                    rooted: root.is_some(),
                    skip: 0,
                    line,
                });
                self.converted(recv, to_ptr);
                self.push(Op::WriteBuf { line });
                self.patch(skip);
            }
            Mpi::Gather {
                send,
                count: n,
                dtype,
                recv,
                root,
            } => {
                self.converted(send, to_ptr);
                self.converted(n, count);
                let dtype = self.named(dtype, MpiDtype::Int);
                if let Some(root) = root {
                    self.converted(root, to_i64);
                }
                let skip = self.push(Op::Gather {
                    dtype,
                    rooted: root.is_some(),
                    skip: 0,
                    line,
                });
                self.converted(recv, to_ptr);
                self.push(Op::WriteBuf { line });
                self.patch(skip);
            }
            Mpi::Scatter {
                send,
                count: n,
                dtype,
                recv,
                recv_count,
                root,
            } => {
                self.converted(n, count);
                let dtype = self.named(dtype, MpiDtype::Int);
                self.converted(recv, to_ptr);
                self.converted(recv_count, count);
                self.converted(root, to_i64);
                // Only the root evaluates where it scatters from.
                let skip = self.push(Op::ScatterBegin {
                    dtype,
                    skip: 0,
                    line,
                });
                self.converted(send, to_ptr);
                self.push(Op::ScatterRoot { dtype, line });
                self.patch(skip);
            }
        }
        self.push(Op::Int(0)); // MPI_SUCCESS
    }
}

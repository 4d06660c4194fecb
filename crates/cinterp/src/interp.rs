//! The interpreter: runs a [`Compiled`] program on one rank.
//!
//! Statements and expressions are evaluated over the rank's [`Memory`] in
//! the order and with the step accounting of the source tree — one step
//! per statement executed and one per loop iteration — but without names:
//! a variable is the [`Binding`] in its slot, a call is an index or a
//! builtin tag, a type is a [`CType`]. Nothing on the path of an executed
//! statement allocates; what a block declares is released when it exits.

use crate::builtins::{format_printf, PrintfArg, Rng};
use crate::compile::{
    Block, Call, Callee, Compiled, Decl, Envelope, Expr, ForInit, Init, Lvalue, Mpi, MpiDtype,
    Named, Param, Printf, PrintfOperand, Stmt, VarRef,
};
use crate::error::{Fault, InterpError};
use crate::machine::{Binding, CType, Dims, Memory, Value};
use mpirical_cparse::BinOp;
use mpirical_sim::{Comm, Source, Status, Tag};

/// Per-rank execution limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Statement/iteration budget before aborting as a runaway loop — the
    /// only bound on a rank that never stops computing (the simulator has
    /// no timer).
    pub step_limit: u64,
    /// Budget of live memory cells (16 bytes/cell) — globals, the locals of
    /// the calls and blocks in progress, and everything ever `malloc`ed —
    /// before aborting as a runaway allocation. The default (~64 MiB per
    /// rank) is far above anything a legitimate benchmark program needs.
    pub cell_limit: usize,
}

/// Most user-function calls a rank may have in progress; one more is a
/// [`InterpError::CallDepth`]. Interpreted calls are Rust calls on the rank
/// thread, so this bound, with the [`RANK_STACK_BYTES`] every rank thread
/// gets, is what keeps recursion in a submitted program from overflowing
/// the stack and aborting the process. It is a constant rather than a
/// [`Limits`] field so that the stack it needs is known when the thread is
/// spawned.
///
/// [`RANK_STACK_BYTES`]: mpirical_sim::RANK_STACK_BYTES
pub const MAX_CALL_DEPTH: usize = 1_000;

/// Most interpreter frames the calls in progress may hold open, summed
/// over their functions' static frame depths, which
/// [`compile()`](crate::compile()) records (one per statement, block,
/// interior expression, lvalue, declaration and initializer level; a call
/// counts 3, a `printf` 2, an MPI call 7); a call that would exceed it is
/// a [`InterpError::CallDepth`] as well. [`MAX_CALL_DEPTH`] counts calls,
/// but a call whose recursion sits a hundred blocks deep stacks a hundred
/// frames: 998 such calls overflowed a release rank stack.
///
/// Sizing: the largest frame per level is ≈ 7 KB in a debug build (an
/// interior expression; an MPI call, ≈ 40 KB, counts as 7 levels) and
/// ≈ 0.3 KB optimised (a block), so 16 000 levels need ≈ 112 MB of the
/// 128 MiB debug and ≈ 4.6 MB of the 8 MiB release [`RANK_STACK_BYTES`].
/// Measured on x86-64, a rank thread recursing through the costliest
/// shapes first overflows between 19 500 and 21 000 levels in debug and
/// between 32 000 and 40 000 optimised. It admits the full
/// [`MAX_CALL_DEPTH`] for calls up to 15 levels deep.
///
/// [`RANK_STACK_BYTES`]: mpirical_sim::RANK_STACK_BYTES
pub const MAX_LEVELS: usize = 16_000;

impl Default for Limits {
    fn default() -> Self {
        Limits {
            step_limit: 50_000_000,
            cell_limit: 4_000_000,
        }
    }
}

/// Control-flow signal from statement execution. A `Return`'s value waits
/// in [`Interp::returned`], which keeps `Result<Flow, Fault>` in registers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

/// A resolved storage location.
#[derive(Debug, Clone, Copy)]
struct Place {
    addr: usize,
    ctype: Option<CType>,
    /// Remaining array dims at this place (non-scalar ⇒ the place designates
    /// a sub-array, which decays to a pointer as an rvalue).
    dims: Dims,
    is_pointer: bool,
}

impl Place {
    /// The place a variable names.
    fn var(b: Binding) -> Place {
        Place {
            addr: b.addr,
            ctype: Some(b.ctype),
            dims: b.dims,
            is_pointer: b.is_pointer,
        }
    }

    /// A scalar cell reached through a pointer or a member access.
    fn cell(addr: usize, ctype: Option<CType>) -> Place {
        Place {
            addr,
            ctype,
            dims: Dims::SCALAR,
            is_pointer: false,
        }
    }
}

/// A typed message buffer bridging cells ↔ the simulator's generics.
enum TypedVec {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
    U8(Vec<u8>),
}

/// The constant a named MPI argument resolved to at compile time, or the
/// error it raises now that the call has reached it.
fn named<T: Copy>(arg: &Named<T>) -> Result<T, Fault> {
    arg.as_ref().map(|&v| v).map_err(Clone::clone)
}

pub(crate) struct Interp<'a> {
    code: &'a Compiled,
    comm: &'a Comm,
    mem: Memory,
    /// Evaluated arguments of the user calls being set up, as a stack.
    args: Vec<Value>,
    /// The value of the `return` statement being unwound to its call.
    returned: Value,
    rng: Rng,
    output: String,
    steps: u64,
    /// User-function calls in progress.
    depth: usize,
    /// Sum of `Function::levels` over `main` and the calls in progress.
    levels: usize,
    limits: Limits,
    /// The name-keyed environment the slots replaced, kept beside them in
    /// unit tests to check every resolution against.
    #[cfg(test)]
    shadow: crate::shadow::NameChain,
}

impl<'a> Interp<'a> {
    pub fn new(code: &'a Compiled, comm: &'a Comm, limits: Limits) -> Interp<'a> {
        Interp {
            code,
            comm,
            mem: Memory::new(code.global_slots),
            args: Vec::new(),
            returned: Value::Int(0),
            rng: Rng::new(comm.rank() as u64 + 1),
            output: String::new(),
            steps: 0,
            depth: 0,
            levels: 0,
            limits,
            #[cfg(test)]
            shadow: Default::default(),
        }
    }

    /// Execute `main`; returns `(exit code, captured stdout)`.
    pub fn run(mut self) -> Result<(i64, String), Fault> {
        let code = self.code;
        // Globals first.
        for d in &code.globals {
            self.exec_declaration(d)?;
        }
        let main = code
            .main
            .map(|index| &code.functions[index as usize])
            .ok_or_else(|| {
                Box::new(InterpError::Undefined {
                    name: "main".into(),
                    line: 1,
                })
            })?;
        let frame = self.mem.push_frame(main.slots);
        #[cfg(test)]
        self.shadow.push_frame();
        self.levels = main.levels;
        // argc/argv exist but hold placeholder values.
        for p in &main.params {
            let addr = self.bind_param(p)?;
            self.mem.store(addr, Value::Int(0), main.line)?;
        }
        let flow = self.exec_block(&main.body)?;
        #[cfg(test)]
        self.shadow.pop_frame();
        self.mem.pop_frame(frame);
        let exit = match flow {
            Flow::Return => self.returned.as_i64(0).unwrap_or(0),
            _ => 0,
        };
        Ok((exit, self.output))
    }

    /// Would `n` more cells exceed the budget of live cells?
    fn check_cells(&self, n: usize) -> Result<(), Fault> {
        if self.mem.live().saturating_add(n.max(1)) > self.limits.cell_limit {
            return Err(InterpError::MemoryLimit {
                limit: self.limits.cell_limit,
            }
            .into());
        }
        Ok(())
    }

    /// Allocate `n` stack cells, enforcing the memory budget.
    fn alloc(&mut self, n: usize) -> Result<usize, Fault> {
        self.check_cells(n)?;
        Ok(self.mem.alloc(n))
    }

    #[inline]
    fn tick(&mut self) -> Result<(), Fault> {
        self.steps += 1;
        if self.steps > self.limits.step_limit {
            return Err(self.out_of_steps());
        }
        Ok(())
    }

    #[cold]
    fn out_of_steps(&self) -> Fault {
        Box::new(InterpError::StepLimit {
            limit: self.limits.step_limit,
        })
    }

    // -- variables -------------------------------------------------------------

    /// Execute the declaration of `var`.
    fn bind(&mut self, var: VarRef, binding: Binding) {
        if let Some(slot) = var.slot {
            self.mem.bind(slot, binding);
        }
        #[cfg(test)]
        self.shadow.define(self.code.name(var), binding.addr);
    }

    /// Give a parameter of the function being entered its cell.
    fn bind_param(&mut self, p: &Param) -> Result<usize, Fault> {
        let addr = self.alloc(1)?;
        self.bind(
            p.var,
            Binding {
                addr,
                ctype: p.ctype,
                dims: Dims::SCALAR,
                is_pointer: p.is_pointer,
            },
        );
        Ok(addr)
    }

    /// Where `var` lives, or `Undefined`: the name resolved to nothing, or
    /// to a global whose declaration has not executed yet.
    #[inline]
    fn binding(&self, var: VarRef, line: u32) -> Result<Binding, Fault> {
        let bound = var
            .slot
            .map(|slot| self.mem.binding(slot))
            .filter(|b| b.addr != 0);
        #[cfg(test)]
        self.shadow
            .check(self.code.name(var), bound.map(|b| b.addr));
        bound.ok_or_else(|| self.undefined(var, line))
    }

    #[cold]
    fn undefined(&self, var: VarRef, line: u32) -> Fault {
        Box::new(InterpError::Undefined {
            name: self.code.name(var).to_string(),
            line,
        })
    }

    // -- statements ----------------------------------------------------------

    fn exec_block(&mut self, b: &Block) -> Result<Flow, Fault> {
        let mark = self.mem.mark();
        #[cfg(test)]
        self.shadow.push_scope();
        let mut flow = Flow::Normal;
        for s in &b.stmts {
            flow = self.exec_stmt(s)?;
            if flow != Flow::Normal {
                break;
            }
        }
        #[cfg(test)]
        self.shadow.pop_scope();
        self.mem.release(mark);
        Ok(flow)
    }

    /// One step, then the statement. Expression statements — most of what
    /// a loop body executes — run in the caller's frame.
    #[inline(always)]
    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow, Fault> {
        self.tick()?;
        match s {
            Stmt::Expr(Some(e)) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            _ => self.exec_compound(s),
        }
    }

    #[inline(never)]
    fn exec_compound(&mut self, s: &Stmt) -> Result<Flow, Fault> {
        match s {
            Stmt::Decl(d) => {
                self.exec_declaration(d)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(expr) => {
                if let Some(e) = expr {
                    self.eval(e)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_stmt(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec_stmt(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.truthy() {
                    self.tick()?;
                    match self.exec_stmt(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond } => {
                loop {
                    self.tick()?;
                    match self.exec_stmt(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let mark = self.mem.mark();
                #[cfg(test)]
                self.shadow.push_scope();
                match init {
                    ForInit::None => {}
                    ForInit::Decl(d) => self.exec_declaration(d)?,
                    ForInit::Expr(e) => {
                        self.eval(e)?;
                    }
                }
                let result = loop {
                    let go = match cond {
                        Some(c) => self.eval(c)?.truthy(),
                        None => true,
                    };
                    if !go {
                        break Flow::Normal;
                    }
                    self.tick()?;
                    match self.exec_stmt(body)? {
                        Flow::Break => break Flow::Normal,
                        Flow::Return => break Flow::Return,
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(st) = step {
                        self.eval(st)?;
                    }
                };
                #[cfg(test)]
                self.shadow.pop_scope();
                self.mem.release(mark);
                Ok(result)
            }
            Stmt::Return(expr) => {
                self.returned = match expr {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                Ok(Flow::Return)
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(b),
            Stmt::Raise(e) => Err(e.clone()),
        }
    }

    #[inline(never)]
    fn exec_declaration(&mut self, d: &Decl) -> Result<(), Fault> {
        for decl in &d.declarators {
            // Array dims are whatever their expressions evaluate to at this
            // point of execution.
            let at = self.mem.mark();
            let mut elems = Some(1usize);
            for dim in &decl.dims {
                let n = match dim {
                    Some(e) => self.eval(e)?.as_i64(d.line)?,
                    None => 0,
                };
                if n < 0 {
                    return Err(InterpError::OutOfBounds {
                        detail: format!("negative array dimension {n}"),
                        line: d.line,
                    }
                    .into());
                }
                self.mem.push_dim(n as usize);
                elems = elems.and_then(|e| e.checked_mul(n as usize));
            }
            let dims = self.mem.dims_since(at);
            // A product past `usize` is past any budget.
            let cells = elems
                .and_then(|e| e.max(1).checked_mul(d.ctype.cells()))
                .unwrap_or(usize::MAX);
            let addr = self.alloc(cells)?;
            self.bind(
                decl.var,
                Binding {
                    addr,
                    ctype: d.ctype,
                    dims,
                    is_pointer: decl.is_pointer,
                },
            );
            if let Some(init) = &decl.init {
                self.init_into(addr, d.ctype, dims, init, d.line)?;
            }
        }
        Ok(())
    }

    fn init_into(
        &mut self,
        addr: usize,
        ctype: CType,
        dims: Dims,
        init: &Init,
        line: u32,
    ) -> Result<(), Fault> {
        match init {
            Init::Expr(e) => {
                let v = self.eval(e)?;
                self.mem.store_typed(addr, v, ctype, line)
            }
            Init::List(items) => {
                let inner = dims.tail();
                let stride = self.stride(inner);
                for (i, item) in items.iter().enumerate() {
                    let sub = addr + i * stride * ctype.cells();
                    match item {
                        Init::List(_) => self.init_into(sub, ctype, inner, item, line)?,
                        Init::Expr(e) => {
                            let v = self.eval(e)?;
                            self.mem.store_typed(sub, v, ctype, line)?;
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Elements in one step of an array whose *remaining* dims are `inner`.
    fn stride(&self, inner: Dims) -> usize {
        self.mem.dims(inner).iter().product::<usize>().max(1)
    }

    // -- places (lvalues) ----------------------------------------------------

    /// A plain variable — the usual target — is resolved in the caller's
    /// frame, like the leaves of [`Interp::eval`].
    #[inline(always)]
    fn place(&mut self, lv: &Lvalue, line: u32) -> Result<Place, Fault> {
        match lv {
            Lvalue::Var(var) => Ok(Place::var(self.binding(*var, line)?)),
            _ => self.place_interior(lv, line),
        }
    }

    #[inline(never)]
    fn place_interior(&mut self, lv: &Lvalue, line: u32) -> Result<Place, Fault> {
        match lv {
            Lvalue::Var(_) => self.place(lv, line),
            Lvalue::Index { base, index } => {
                let b = self.place(base, line)?;
                let idx = self.eval(index)?.as_i64(line)?;
                if idx < 0 {
                    return Err(InterpError::OutOfBounds {
                        detail: format!("negative index {idx}"),
                        line,
                    }
                    .into());
                }
                let idx = idx as usize;
                let elem_cells = b.ctype.map(CType::cells).unwrap_or(1);
                if !b.dims.is_scalar() {
                    // Sub-array step: product of trailing dims.
                    let inner = b.dims.tail();
                    Ok(Place {
                        addr: b.addr + idx * self.stride(inner) * elem_cells,
                        ctype: b.ctype,
                        dims: inner,
                        is_pointer: false,
                    })
                } else if b.is_pointer {
                    // Pointer subscript: load the pointer, then offset.
                    let ptr = self.mem.load(b.addr, line)?.as_ptr(line)?;
                    Ok(Place::cell(ptr + idx * elem_cells, b.ctype))
                } else {
                    Err(InterpError::TypeError {
                        detail: "subscript of non-array".into(),
                        line,
                    }
                    .into())
                }
            }
            Lvalue::Deref { ptr, pointee } => {
                let addr = self.eval(ptr)?.as_ptr(line)?;
                // If the operand is a known pointer variable, propagate type.
                let ctype = match pointee {
                    Some(var) => self.binding(*var, line).ok().map(|b| b.ctype),
                    None => None,
                };
                Ok(Place::cell(addr, ctype))
            }
            Lvalue::Member { base, offset } => {
                let b = self.place(base, line)?;
                Ok(Place::cell(b.addr + offset, Some(CType::Int)))
            }
            Lvalue::Raise(e) => Err(e.clone()),
        }
    }

    fn load_place(&self, p: &Place, line: u32) -> Result<Value, Fault> {
        if !p.dims.is_scalar() {
            // Array decays to a pointer.
            return Ok(Value::Ptr(p.addr));
        }
        let v = self.mem.load(p.addr, line)?;
        if p.is_pointer {
            // Pointer variables hold addresses encoded as ints.
            return Ok(Value::Ptr(v.as_i64(line)?.max(0) as usize));
        }
        Ok(v)
    }

    fn store_place(&mut self, p: &Place, v: Value, line: u32) -> Result<(), Fault> {
        match p.ctype {
            Some(ct) if !p.is_pointer => self.mem.store_typed(p.addr, v, ct, line),
            _ => self.mem.store(p.addr, v, line),
        }
    }

    // -- expressions ----------------------------------------------------------

    /// Leaves — about half of all nodes — are evaluated in the caller's
    /// frame; only interior nodes pay for a call into the big match.
    #[inline(always)]
    fn eval(&mut self, e: &Expr) -> Result<Value, Fault> {
        match e {
            Expr::Const(v) => Ok(*v),
            Expr::Var(var) => {
                let place = Place::var(self.binding(*var, 0)?);
                self.load_place(&place, 0)
            }
            _ => self.eval_interior(e),
        }
    }

    #[inline(never)]
    fn eval_interior(&mut self, e: &Expr) -> Result<Value, Fault> {
        let line = 0;
        match e {
            Expr::Const(_) | Expr::Var(_) => self.eval(e),
            Expr::Load(lv) => {
                let place = self.place(lv, line)?;
                self.load_place(&place, line)
            }
            Expr::AddrOf(lv) => Ok(Value::Ptr(self.place(lv, line)?.addr)),
            Expr::IncDec {
                target,
                delta,
                post,
            } => {
                let place = self.place(target, line)?;
                let old = self.load_place(&place, line)?;
                let new = match old {
                    Value::Int(v) => Value::Int(v.wrapping_add(*delta)),
                    Value::Double(v) => Value::Double(v + *delta as f64),
                    Value::Ptr(p) => Value::Ptr((p as i64).wrapping_add(*delta) as usize),
                };
                self.store_place(&place, new, line)?;
                Ok(if *post { old } else { new })
            }
            Expr::Deref(operand) => {
                let ptr = self.eval(operand)?.as_ptr(line)?;
                self.mem.load(ptr, line)
            }
            Expr::Neg(operand) => match self.eval(operand)? {
                Value::Int(v) => Ok(Value::Int(v.wrapping_neg())),
                Value::Double(v) => Ok(Value::Double(-v)),
                Value::Ptr(_) => Err(InterpError::TypeError {
                    detail: "negating a pointer".into(),
                    line,
                }
                .into()),
            },
            Expr::Not(operand) => Ok(Value::Int(!self.eval(operand)?.truthy() as i64)),
            Expr::BitNot(operand) => Ok(Value::Int(!self.eval(operand)?.as_i64(line)?)),
            Expr::And(lhs, rhs) => Ok(Value::Int(
                (self.eval(lhs)?.truthy() && self.eval(rhs)?.truthy()) as i64,
            )),
            Expr::Or(lhs, rhs) => Ok(Value::Int(
                (self.eval(lhs)?.truthy() || self.eval(rhs)?.truthy()) as i64,
            )),
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                binop(*op, a, b, line)
            }
            Expr::Assign { op, target, rhs } => {
                let rv = self.eval(rhs)?;
                let place = self.place(target, line)?;
                let value = match op {
                    None => rv,
                    Some(op) => {
                        let current = self.load_place(&place, line)?;
                        binop(*op, current, rv, line)?
                    }
                };
                self.store_place(&place, value, line)?;
                self.load_place(&place, line)
            }
            Expr::Cast { to_float, operand } => {
                let v = self.eval(operand)?;
                Ok(match (to_float, v) {
                    (true, Value::Int(i)) => Value::Double(i as f64),
                    (false, Value::Double(d)) => Value::Int(d as i64),
                    _ => v,
                })
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                if self.eval(cond)?.truthy() {
                    self.eval(then_expr)
                } else {
                    self.eval(else_expr)
                }
            }
            Expr::Comma(lhs, rhs) => {
                self.eval(lhs)?;
                self.eval(rhs)
            }
            Expr::Call(call) => self.call(call),
            Expr::Printf(p) => self.printf(p),
            Expr::Mpi(call) => self.mpi_call(&call.op, call.line),
            Expr::Raise(e) => Err(e.clone()),
        }
    }

    // -- calls -----------------------------------------------------------------

    #[inline(never)]
    fn call(&mut self, call: &Call) -> Result<Value, Fault> {
        let line = call.line;
        // Builtins read one or two leading arguments; compilation made sure
        // they are there.
        let arg = |this: &mut Self, i: usize| match call.args.get(i) {
            Some(e) => this.eval(e),
            None => Ok(Value::Int(0)),
        };
        match call.callee {
            Callee::User(index) => self.call_user(index, &call.args, line),
            Callee::Math(f) => {
                let a = arg(self, 0)?.as_f64(line)?;
                let b = arg(self, 1)?.as_f64(line)?;
                Ok(Value::Double(f.apply(a, b)))
            }
            Callee::Srand => {
                let seed = arg(self, 0)?.as_i64(line)?;
                self.rng.srand(seed as u64);
                Ok(Value::Int(0))
            }
            Callee::Rand => Ok(Value::Int(self.rng.rand())),
            Callee::Abs => Ok(Value::Int(arg(self, 0)?.as_i64(line)?.wrapping_abs())),
            Callee::Exit => {
                let code = arg(self, 0)?.as_i64(line)?;
                Err(InterpError::Mpi(self.comm.abort(code as i32)).into())
            }
            Callee::Malloc(elem) => {
                let bytes = arg(self, 0)?.as_i64(line)?;
                if bytes < 0 {
                    return Err(InterpError::OutOfBounds {
                        detail: format!("malloc({bytes})"),
                        line,
                    }
                    .into());
                }
                let cells = (bytes as usize).div_ceil(elem.size_bytes()).max(1);
                self.check_cells(cells)?;
                Ok(Value::Ptr(self.mem.alloc_heap(cells)))
            }
        }
    }

    #[inline(never)]
    fn call_user(&mut self, index: u32, args: &[Expr], line: u32) -> Result<Value, Fault> {
        let code = self.code;
        let f = &code.functions[index as usize];
        if self.depth == MAX_CALL_DEPTH || self.levels + f.levels > MAX_LEVELS {
            return Err(InterpError::CallDepth {
                limit: self.depth,
                line,
            }
            .into());
        }
        let base = self.args.len();
        for a in args {
            let v = self.eval(a)?;
            self.args.push(v);
        }
        let frame = self.mem.push_frame(f.slots);
        #[cfg(test)]
        self.shadow.push_frame();
        for (i, p) in f.params.iter().enumerate() {
            let v = self.args[base + i];
            let addr = self.bind_param(p)?;
            if p.is_pointer {
                self.mem.store(addr, v, line)?;
            } else {
                self.mem.store_typed(addr, v, p.ctype, line)?;
            }
        }
        self.args.truncate(base);
        self.depth += 1;
        self.levels += f.levels;
        let flow = self.exec_block(&f.body)?;
        self.depth -= 1;
        self.levels -= f.levels;
        #[cfg(test)]
        self.shadow.pop_frame();
        self.mem.pop_frame(frame);
        Ok(match flow {
            Flow::Return => self.returned,
            _ => Value::Int(0),
        })
    }

    #[inline(never)]
    fn printf(&mut self, p: &Printf) -> Result<Value, Fault> {
        let mut pargs = Vec::with_capacity(p.args.len());
        for a in &p.args {
            pargs.push(match a {
                PrintfOperand::Str(s) => PrintfArg::Str(s),
                PrintfOperand::Value(e) => PrintfArg::Value(self.eval(e)?),
            });
        }
        let text = format_printf(&p.fmt, &pargs, p.line)?;
        self.output.push_str(&text);
        Ok(Value::Int(text.len() as i64))
    }

    // -- MPI bindings -----------------------------------------------------------

    fn read_buf(
        &self,
        ptr: usize,
        count: usize,
        dtype: MpiDtype,
        line: u32,
    ) -> Result<TypedVec, Fault> {
        macro_rules! gather {
            ($conv:expr) => {{
                let mut v = Vec::with_capacity(count);
                for i in 0..count {
                    let cell = self.mem.load(ptr + i, line)?;
                    v.push($conv(cell, line)?);
                }
                v
            }};
        }
        Ok(match dtype {
            MpiDtype::Int => TypedVec::I32(gather!(|c: Value, l| c.as_i64(l).map(|x| x as i32))),
            MpiDtype::Long => TypedVec::I64(gather!(|c: Value, l| c.as_i64(l))),
            MpiDtype::Float => TypedVec::F32(gather!(|c: Value, l| c.as_f64(l).map(|x| x as f32))),
            MpiDtype::Double => TypedVec::F64(gather!(|c: Value, l| c.as_f64(l))),
            MpiDtype::Byte => TypedVec::U8(gather!(|c: Value, l| c.as_i64(l).map(|x| x as u8))),
        })
    }

    fn write_buf(&mut self, ptr: usize, data: &TypedVec, line: u32) -> Result<(), Fault> {
        match data {
            TypedVec::I32(v) => {
                for (i, &x) in v.iter().enumerate() {
                    self.mem.store(ptr + i, Value::Int(x as i64), line)?;
                }
            }
            TypedVec::I64(v) => {
                for (i, &x) in v.iter().enumerate() {
                    self.mem.store(ptr + i, Value::Int(x), line)?;
                }
            }
            TypedVec::F32(v) => {
                for (i, &x) in v.iter().enumerate() {
                    self.mem.store(ptr + i, Value::Double(x as f64), line)?;
                }
            }
            TypedVec::F64(v) => {
                for (i, &x) in v.iter().enumerate() {
                    self.mem.store(ptr + i, Value::Double(x), line)?;
                }
            }
            TypedVec::U8(v) => {
                for (i, &x) in v.iter().enumerate() {
                    self.mem.store(ptr + i, Value::Int(x as i64), line)?;
                }
            }
        }
        Ok(())
    }

    /// Fill in the `MPI_Status` an argument points at.
    fn write_status(&mut self, arg: &Expr, st: Status, line: u32) -> Result<(), Fault> {
        let ptr = self.eval(arg)?.as_ptr(line)?;
        self.mem.store(ptr, Value::Int(st.source as i64), line)?;
        self.mem.store(ptr + 1, Value::Int(st.tag as i64), line)?;
        self.mem.store(ptr + 2, Value::Int(st.count as i64), line)?;
        Ok(())
    }

    /// Mark the request an `MPI_Isend`/`MPI_Irecv` argument points at as
    /// complete (both complete eagerly).
    fn complete_request(&mut self, arg: &Option<Expr>, line: u32) -> Result<(), Fault> {
        if let Some(req) = arg {
            let ptr = self.eval(req)?.as_ptr(line)?;
            self.mem.store(ptr, Value::Int(0), line)?;
        }
        Ok(())
    }

    fn eval_index(&mut self, e: &Expr, line: u32) -> Result<usize, Fault> {
        Ok(self.eval(e)?.as_i64(line)? as usize)
    }

    /// An MPI element count, checked before it sizes a buffer.
    fn eval_count(&mut self, e: &Expr, line: u32) -> Result<usize, Fault> {
        let count = self.eval(e)?.as_i64(line)?;
        self.message_len(count, line)
    }

    /// `count` as a buffer length: no more elements than the cell budget,
    /// since a rank's memory holds no more, so no input sizes a `Vec` past
    /// what the rank may use.
    fn message_len(&self, count: i64, line: u32) -> Result<usize, Fault> {
        let limit = self.limits.cell_limit;
        match usize::try_from(count) {
            Ok(n) if n <= limit => Ok(n),
            _ => Err(InterpError::MessageCount { count, limit, line }.into()),
        }
    }

    /// The elements of a gather or scatter across every rank, `count` each.
    fn world_len(&self, count: usize, line: u32) -> Result<usize, Fault> {
        let total = (count as i64).saturating_mul(self.comm.size() as i64);
        self.message_len(total, line)
    }

    fn send(&mut self, s: &Envelope, line: u32) -> Result<(), Fault> {
        let ptr = self.eval(&s.buf)?.as_ptr(line)?;
        let count = self.eval_count(&s.count, line)?;
        let dtype = named(&s.dtype)?;
        let dest = self.eval_index(&s.peer, line)?;
        let tag = self.eval(&s.tag)?.as_i64(line)? as i32;
        match &self.read_buf(ptr, count, dtype, line)? {
            TypedVec::I32(v) => self.comm.send(v, dest, tag)?,
            TypedVec::I64(v) => self.comm.send(v, dest, tag)?,
            TypedVec::F32(v) => self.comm.send(v, dest, tag)?,
            TypedVec::F64(v) => self.comm.send(v, dest, tag)?,
            TypedVec::U8(v) => self.comm.send(v, dest, tag)?,
        }
        Ok(())
    }

    fn recv(&mut self, r: &Envelope, line: u32) -> Result<Status, Fault> {
        let ptr = self.eval(&r.buf)?.as_ptr(line)?;
        let count = self.eval_count(&r.count, line)?;
        let dtype = named(&r.dtype)?;
        // Negative ranks and tags are the wildcards (`MPI_ANY_SOURCE`).
        let source = match self.eval(&r.peer)?.as_i64(line)? {
            v if v < 0 => Source::Any,
            v => Source::Rank(v as usize),
        };
        let tag = match self.eval(&r.tag)?.as_i64(line)? {
            v if v < 0 => Tag::Any,
            v => Tag::Value(v as i32),
        };
        macro_rules! recv_as {
            ($t:ty, $variant:ident) => {{
                let mut buf = vec![<$t>::default(); count];
                let st = self.comm.recv(&mut buf, source, tag)?;
                self.write_buf(ptr, &TypedVec::$variant(buf), line)?;
                st
            }};
        }
        Ok(match dtype {
            MpiDtype::Int => recv_as!(i32, I32),
            MpiDtype::Long => recv_as!(i64, I64),
            MpiDtype::Float => recv_as!(f32, F32),
            MpiDtype::Double => recv_as!(f64, F64),
            MpiDtype::Byte => recv_as!(u8, U8),
        })
    }

    #[inline(never)]
    fn mpi_call(&mut self, call: &Mpi, line: u32) -> Result<Value, Fault> {
        match call {
            Mpi::Nop => {}
            Mpi::CommRank(out) => {
                let ptr = self.eval(out)?.as_ptr(line)?;
                self.mem
                    .store(ptr, Value::Int(self.comm.rank() as i64), line)?;
            }
            Mpi::CommSize(out) => {
                let ptr = self.eval(out)?.as_ptr(line)?;
                self.mem
                    .store(ptr, Value::Int(self.comm.size() as i64), line)?;
            }
            Mpi::Wtime => return Ok(Value::Double(self.comm.wtime())),
            Mpi::Barrier => self.comm.barrier()?,
            Mpi::Abort(code) => {
                let code = self.eval(code)?.as_i64(line)?;
                return Err(InterpError::Mpi(self.comm.abort(code as i32)).into());
            }
            Mpi::Send(send) => self.send(send, line)?,
            Mpi::Isend { send, request } => {
                // Buffered send completes immediately.
                self.send(send, line)?;
                self.complete_request(request, line)?;
            }
            Mpi::Recv { recv, status } => {
                let st = self.recv(recv, line)?;
                if let Some(status) = status {
                    self.write_status(status, st, line)?;
                }
            }
            Mpi::Irecv { recv, request } => {
                self.recv(recv, line)?;
                self.complete_request(request, line)?;
            }
            Mpi::Wait { status } => {
                // Requests complete eagerly; zero the status if provided.
                if let Some(status) = status {
                    let done = Status {
                        source: 0,
                        tag: 0,
                        count: 0,
                    };
                    self.write_status(status, done, line)?;
                }
            }
            Mpi::Sendrecv { send, recv, status } => {
                // Send side first (buffered, never blocks).
                self.send(send, line)?;
                let st = self.recv(recv, line)?;
                if let Some(status) = status {
                    self.write_status(status, st, line)?;
                }
            }
            Mpi::Bcast {
                buf,
                count,
                dtype,
                root,
            } => {
                let ptr = self.eval(buf)?.as_ptr(line)?;
                let count = self.eval_count(count, line)?;
                let dtype = named(dtype)?;
                let root = self.eval_index(root, line)?;
                macro_rules! bcast_as {
                    ($t:ty, $variant:ident) => {{
                        let mut buf = vec![<$t>::default(); count];
                        if self.comm.rank() == root {
                            if let TypedVec::$variant(v) = self.read_buf(ptr, count, dtype, line)? {
                                buf = v;
                            }
                        }
                        self.comm.bcast(&mut buf, root)?;
                        self.write_buf(ptr, &TypedVec::$variant(buf), line)?;
                    }};
                }
                match dtype {
                    MpiDtype::Int => bcast_as!(i32, I32),
                    MpiDtype::Long => bcast_as!(i64, I64),
                    MpiDtype::Float => bcast_as!(f32, F32),
                    MpiDtype::Double => bcast_as!(f64, F64),
                    MpiDtype::Byte => bcast_as!(u8, U8),
                }
            }
            Mpi::Reduce {
                send,
                recv,
                count,
                dtype,
                op,
                root,
            } => {
                let sptr = self.eval(send)?.as_ptr(line)?;
                let count = self.eval_count(count, line)?;
                let dtype = named(dtype)?;
                let op = named(op)?;
                let root = match root {
                    Some(root) => Some(self.eval_index(root, line)?),
                    None => None,
                };
                // Only a rank that receives the result evaluates where to.
                macro_rules! reduce_as {
                    ($t:ty, $variant:ident) => {{
                        let send = match self.read_buf(sptr, count, dtype, line)? {
                            TypedVec::$variant(v) => v,
                            _ => unreachable!(),
                        };
                        let mut out = vec![<$t>::default(); count];
                        match root {
                            None => self.comm.allreduce(&send, &mut out, op)?,
                            Some(root) if self.comm.rank() == root => {
                                self.comm.reduce(&send, Some(&mut out), op, root)?
                            }
                            Some(root) => {
                                self.comm.reduce(&send, None, op, root)?;
                                return Ok(Value::Int(0));
                            }
                        }
                        let rptr = self.eval(recv)?.as_ptr(line)?;
                        self.write_buf(rptr, &TypedVec::$variant(out), line)?;
                    }};
                }
                match dtype {
                    MpiDtype::Int => reduce_as!(i32, I32),
                    MpiDtype::Long => reduce_as!(i64, I64),
                    MpiDtype::Float => reduce_as!(f32, F32),
                    MpiDtype::Double => reduce_as!(f64, F64),
                    MpiDtype::Byte => {
                        return Err(InterpError::Unsupported {
                            detail: "reduce on MPI_BYTE".into(),
                            line,
                        }
                        .into())
                    }
                }
            }
            Mpi::Gather {
                send,
                count,
                dtype,
                recv,
                root,
            } => {
                let sptr = self.eval(send)?.as_ptr(line)?;
                let count = self.eval_count(count, line)?;
                let dtype = named(dtype)?;
                let root = match root {
                    Some(root) => Some(self.eval_index(root, line)?),
                    None => None,
                };
                let total = self.world_len(count, line)?;
                macro_rules! gather_as {
                    ($t:ty, $variant:ident) => {{
                        let send = match self.read_buf(sptr, count, dtype, line)? {
                            TypedVec::$variant(v) => v,
                            _ => unreachable!(),
                        };
                        let mut out = vec![<$t>::default(); total];
                        match root {
                            None => self.comm.allgather(&send, &mut out)?,
                            Some(root) if self.comm.rank() == root => {
                                self.comm.gather(&send, Some(&mut out), root)?
                            }
                            Some(root) => {
                                self.comm.gather(&send, None, root)?;
                                return Ok(Value::Int(0));
                            }
                        }
                        let rptr = self.eval(recv)?.as_ptr(line)?;
                        self.write_buf(rptr, &TypedVec::$variant(out), line)?;
                    }};
                }
                match dtype {
                    MpiDtype::Int => gather_as!(i32, I32),
                    MpiDtype::Long => gather_as!(i64, I64),
                    MpiDtype::Float => gather_as!(f32, F32),
                    MpiDtype::Double => gather_as!(f64, F64),
                    MpiDtype::Byte => gather_as!(u8, U8),
                }
            }
            Mpi::Scatter {
                send,
                count,
                dtype,
                recv,
                recv_count,
                root,
            } => {
                let count = self.eval_count(count, line)?;
                let dtype = named(dtype)?;
                let rptr = self.eval(recv)?.as_ptr(line)?;
                let recv_count = self.eval_count(recv_count, line)?;
                let root = self.eval_index(root, line)?;
                let total = self.world_len(count, line)?;
                // Only the root evaluates where it scatters from.
                macro_rules! scatter_as {
                    ($t:ty, $variant:ident) => {{
                        let mut mine = vec![<$t>::default(); recv_count];
                        if self.comm.rank() == root {
                            let sptr = self.eval(send)?.as_ptr(line)?;
                            let all = match self.read_buf(sptr, total, dtype, line)? {
                                TypedVec::$variant(v) => v,
                                _ => unreachable!(),
                            };
                            self.comm.scatter(Some(&all), &mut mine, root)?;
                        } else {
                            self.comm.scatter(None, &mut mine, root)?;
                        }
                        self.write_buf(rptr, &TypedVec::$variant(mine), line)?;
                    }};
                }
                match dtype {
                    MpiDtype::Int => scatter_as!(i32, I32),
                    MpiDtype::Long => scatter_as!(i64, I64),
                    MpiDtype::Float => scatter_as!(f32, F32),
                    MpiDtype::Double => scatter_as!(f64, F64),
                    MpiDtype::Byte => scatter_as!(u8, U8),
                }
            }
        }
        Ok(Value::Int(0)) // MPI_SUCCESS
    }
}

/// C's usual arithmetic conversions over dynamically typed values: pointer
/// ± integer offsets the pointer, a double on either side makes the
/// operation floating, anything else is integer arithmetic.
#[inline]
fn binop(op: BinOp, a: Value, b: Value, line: u32) -> Result<Value, Fault> {
    use BinOp::*;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_op(op, x, y, line),
        (Value::Double(x), Value::Double(y)) => float_op(op, x, y, line),
        (Value::Double(x), Value::Int(y)) => float_op(op, x, y as f64, line),
        (Value::Int(x), Value::Double(y)) => float_op(op, x as f64, y, line),
        (Value::Ptr(p), Value::Int(i)) if matches!(op, Add | Sub | Eq | Ne) => Ok(match op {
            Add => Value::Ptr((p as i64).wrapping_add(i) as usize),
            Sub => Value::Ptr((p as i64).wrapping_sub(i) as usize),
            Eq => Value::Int((p as i64 == i) as i64),
            _ => Value::Int((p as i64 != i) as i64),
        }),
        // What is left has a pointer where a number must be: a type error.
        (Value::Double(_), _) | (_, Value::Double(_)) => {
            float_op(op, a.as_f64(line)?, b.as_f64(line)?, line)
        }
        _ => int_op(op, a.as_i64(line)?, b.as_i64(line)?, line),
    }
}

#[inline]
fn int_op(op: BinOp, x: i64, y: i64, line: u32) -> Result<Value, Fault> {
    use BinOp::*;
    Ok(Value::Int(match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div | Rem if y == 0 => return Err(InterpError::DivideByZero { line }.into()),
        Div => x.wrapping_div(y),
        Rem => x.wrapping_rem(y),
        Lt => (x < y) as i64,
        Gt => (x > y) as i64,
        Le => (x <= y) as i64,
        Ge => (x >= y) as i64,
        Eq => (x == y) as i64,
        Ne => (x != y) as i64,
        And | Or => unreachable!("short-circuited"),
        BitAnd => x & y,
        BitOr => x | y,
        BitXor => x ^ y,
        Shl => x.wrapping_shl(y as u32),
        Shr => x.wrapping_shr(y as u32),
    }))
}

#[inline]
fn float_op(op: BinOp, x: f64, y: f64, line: u32) -> Result<Value, Fault> {
    use BinOp::*;
    Ok(match op {
        Add => Value::Double(x + y),
        Sub => Value::Double(x - y),
        Mul => Value::Double(x * y),
        Div => Value::Double(x / y),
        Rem => Value::Double(x % y),
        Lt => Value::Int((x < y) as i64),
        Gt => Value::Int((x > y) as i64),
        Le => Value::Int((x <= y) as i64),
        Ge => Value::Int((x >= y) as i64),
        Eq => Value::Int((x == y) as i64),
        Ne => Value::Int((x != y) as i64),
        And | Or => unreachable!("short-circuited"),
        BitAnd | BitOr | BitXor | Shl | Shr => {
            return Err(InterpError::TypeError {
                detail: "bitwise op on float".into(),
                line,
            }
            .into())
        }
    })
}

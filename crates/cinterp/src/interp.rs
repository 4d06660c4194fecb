//! The interpreter: runs a [`Compiled`] program on one rank.
//!
//! One dispatch loop steps through the program's flat code (`code.rs`)
//! over the rank's [`Memory`]: expressions on a reused operand stack of
//! [`Value`]s, lvalues on a place stack, a user call as a frame record
//! (return position, the caller's binding frame and stack mark, open
//! blocks, frame depth) pushed beside them. Nothing recurses on the Rust
//! stack, so what running a rank needs does not grow with the program, and
//! nothing on the path of an executed statement allocates; what a block
//! declares is released when it exits. Step accounting, evaluation order
//! and every error (kind, text and line) are pinned by
//! `tests/fixtures/cinterp_behaviour.tsv`.
//!
//! All of a rank's state is this struct, so a rank pauses as a value: an
//! MPI op the world cannot complete yet leaves its operands on the operand
//! stack and `pc` on itself, and `Interp::resume` runs it again. Only an
//! MPI op can pause a rank; the loop checks nothing else per op.

use crate::builtins::{format_printf, PrintfArg, Rng};
use crate::code::Op;
use crate::compile::{Compiled, MpiDtype, Param, VarRef};
use crate::error::{Fault, InterpError};
use crate::machine::{Binding, CType, Dims, Frame, Mark, Memory, Value};
use mpirical_cparse::BinOp;
use mpirical_sim::{Matcher, ReduceOp, Source, Status, Tag};
use std::task::Poll;
use std::time::Instant;

/// Unwrap a ready value, or return `Pending` from the enclosing MPI op.
macro_rules! ready {
    ($e:expr) => {
        match $e {
            Poll::Ready(v) => v,
            Poll::Pending => return Ok(Poll::Pending),
        }
    };
}

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
/// [`InterpError::CallDepth`], which verification reports as a crash of the
/// rank (unbounded recursion), checked before the call evaluates its
/// arguments. Calls are frame records on the heap, not Rust calls, so the
/// bound protects no stack: it is part of the semantics a verdict depends
/// on.
pub const MAX_CALL_DEPTH: usize = 1_000;

/// Most static frame levels the calls in progress may hold, summed over
/// their functions' depths, which [`compile()`](crate::compile()) records
/// (one per statement, block, interior expression, lvalue, declaration and
/// initializer level; a call counts 3, a `printf` 2, an MPI call 7); a call
/// that would exceed it is a [`InterpError::CallDepth`] as well, so a
/// recursion whose self-call sits a hundred blocks deep stops at fewer than
/// [`MAX_CALL_DEPTH`] calls.
///
/// The budget was sized when each level was a Rust frame on the rank
/// thread's stack. The flat interpreter spends no stack per level, but the
/// levels still decide where a deep recursion stops and so which verdict
/// it gets, so the bound stays as a semantic one. It admits the full
/// [`MAX_CALL_DEPTH`] for calls up to 15 levels deep.
pub const MAX_LEVELS: usize = 16_000;

impl Default for Limits {
    fn default() -> Self {
        Limits {
            step_limit: 50_000_000,
            cell_limit: 4_000_000,
        }
    }
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

/// The return position of `main`'s frame record: returning there ends the run.
const MAIN_RETURNS: usize = usize::MAX;

/// A user call in progress.
struct CallFrame {
    /// Where the caller continues.
    ret: usize,
    /// The caller's binding frame and stack height.
    frame: Frame,
    /// Marked blocks open in the caller.
    marks: usize,
    /// The callee's static frame depth, counted in [`Interp::levels`].
    levels: usize,
    /// The callee, whose slots the locals index.
    func: usize,
}

/// A typed message buffer bridging cells ↔ the simulator's generics.
enum TypedVec {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
    U8(Vec<u8>),
}

/// One rank's whole execution state: resumed by [`Interp::resume`] until
/// `main` returns, a fault, or an MPI op that cannot complete yet.
pub(crate) struct Interp<'a> {
    program: &'a Compiled,
    rank: usize,
    size: usize,
    /// When the world started (`MPI_Wtime`).
    start: Instant,
    mem: Memory,
    /// Where the next resume starts: 0, or the MPI op that was waiting.
    pc: usize,
    /// Steps spent so far.
    steps: u64,
    /// The operand stack, while an out-of-line MPI op reads it or the rank
    /// waits (the dispatch loop holds it otherwise).
    stack: Vec<Value>,
    /// Places of the lvalues being evaluated.
    places: Vec<Place>,
    /// Stack marks of the blocks that declare, innermost last.
    marks: Vec<Mark>,
    /// User calls in progress, `main`'s first once it runs.
    frames: Vec<CallFrame>,
    /// Storage and dims of the initializers being run, innermost element last.
    inits: Vec<(usize, Dims)>,
    /// Collective results waiting for the receive buffer to be evaluated.
    bufs: Vec<TypedVec>,
    rng: Rng,
    output: String,
    /// User-function calls in progress.
    depth: usize,
    /// Sum of the static frame depths of `main` and the calls in progress.
    levels: usize,
    limits: Limits,
    /// The name-keyed environment the slots replaced, kept beside them in
    /// unit tests to check every resolution against.
    #[cfg(test)]
    shadow: crate::shadow::NameChain,
}

impl<'a> Interp<'a> {
    pub fn new(
        program: &'a Compiled,
        rank: usize,
        size: usize,
        limits: Limits,
        start: Instant,
    ) -> Interp<'a> {
        Interp {
            program,
            rank,
            size,
            start,
            mem: Memory::new(program.global_names.len()),
            pc: 0,
            steps: 0,
            stack: Vec::with_capacity(64),
            places: Vec::with_capacity(16),
            marks: Vec::with_capacity(16),
            frames: Vec::with_capacity(16),
            inits: Vec::new(),
            bufs: Vec::new(),
            rng: Rng::new(rank as u64 + 1),
            output: String::new(),
            depth: 0,
            levels: 0,
            limits,
            #[cfg(test)]
            shadow: Default::default(),
        }
    }

    /// Run on from where the rank stopped — the first global declaration,
    /// or the MPI op it waited in, which runs again — until `main` returns
    /// its exit code, a fault, or an MPI op that cannot complete yet
    /// (`Pending`, with the op's operands kept on the operand stack).
    pub fn resume(&mut self, world: &mut Matcher) -> Result<Poll<i64>, Fault> {
        // A pointer returned from `main` exits 0.
        Ok(self.exec(world)?.map(|v| v.as_i64(0).unwrap_or(0)))
    }

    /// The captured stdout.
    pub fn into_output(self) -> String {
        self.output
    }

    /// The dispatch loop, from `self.pc` to `main`'s return or a waiting
    /// MPI op. The operand stack is a local here, so its length can live in
    /// a register; the rare ops that read it out of line get it lent back
    /// through `self.stack`, where it also stays while the rank waits.
    fn exec(&mut self, world: &mut Matcher) -> Result<Poll<Value>, Fault> {
        let program = self.program;
        let ops = &program.code.ops[..];
        let mut stack = std::mem::take(&mut self.stack);
        let limit = self.limits.step_limit;
        let mut steps = self.steps;
        // One step of the budget per statement and per loop iteration.
        macro_rules! tick {
            ($n:expr) => {{
                steps += u64::from($n);
                if steps > limit {
                    return Err(self.out_of_steps());
                }
            }};
        }
        let mut pc = self.pc;
        loop {
            let op = &ops[pc];
            pc += 1;
            match *op {
                Op::Tick(n) => tick!(n),
                Op::Enter => {
                    self.marks.push(self.mem.mark());
                    #[cfg(test)]
                    self.shadow.push_scope();
                }
                Op::Leave(n) => self.leave(n as usize),
                Op::Jump(to) => pc = to as usize,
                Op::Loop { to, ticks } => {
                    tick!(ticks);
                    pc = to as usize;
                }
                Op::LoopIfTrue { to, ticks } => {
                    if pop(&mut stack).truthy() {
                        tick!(ticks);
                        pc = to as usize;
                    }
                }
                Op::LoopVarVar {
                    lhs,
                    op,
                    rhs,
                    to,
                    ticks,
                } => {
                    let (a, b) = (self.load_var(lhs)?, self.load_var(rhs)?);
                    if binop(op, a, b, 0)?.truthy() {
                        tick!(ticks);
                        pc = to as usize;
                    }
                }
                Op::LoopVarInt {
                    lhs,
                    op,
                    rhs,
                    to,
                    ticks,
                } => {
                    let a = self.load_var(lhs)?;
                    if binop(op, a, Value::Int(rhs.into()), 0)?.truthy() {
                        tick!(ticks);
                        pc = to as usize;
                    }
                }
                Op::JumpIfFalse(to) => {
                    if !pop(&mut stack).truthy() {
                        pc = to as usize;
                    }
                }
                Op::Pop => {
                    pop(&mut stack);
                }
                Op::Return | Op::ReturnVoid => {
                    let value = match *op {
                        Op::Return => pop(&mut stack),
                        _ => Value::Int(0),
                    };
                    match self.ret() {
                        Some(to) => {
                            stack.push(value);
                            pc = to;
                        }
                        None => {
                            self.steps = steps;
                            return Ok(Poll::Ready(value));
                        }
                    }
                }
                Op::Raise(i) => return Err(Box::new(program.code.raises[i as usize].clone())),
                Op::Main => pc = self.enter_main()?,

                Op::Dim { line } => self.dim(pop(&mut stack), line)?,
                Op::Declare(i) => self.declare(i as usize)?,
                Op::InitAt { index, ctype } => {
                    let (addr, dims) = *self.inits.last().expect("initializer cursor");
                    let inner = dims.tail();
                    let stride = self.stride(inner);
                    self.inits
                        .push((addr + index as usize * stride * ctype.cells(), inner));
                }
                Op::InitStore { ctype, line } => {
                    let v = pop(&mut stack);
                    let (addr, _) = self.inits.pop().expect("initializer cursor");
                    self.mem.store_typed(addr, v, ctype, line)?;
                }
                Op::InitPop => {
                    self.inits.pop();
                }

                Op::Int(v) => stack.push(Value::Int(v)),
                Op::Float(v) => stack.push(Value::Double(v)),
                Op::Ptr(v) => stack.push(Value::Ptr(v)),
                Op::Load(var) => stack.push(self.load_var(var)?),
                Op::AssignVar { var, op, keep } => {
                    let place = Place::var(self.binding(var, 0)?);
                    let rv = pop(&mut stack);
                    self.assign(&place, op, rv)?;
                    if keep {
                        stack.push(self.load_place(&place, 0)?);
                    }
                }
                Op::AssignVarVar { var, op, src } => {
                    let rv = self.load_var(src)?;
                    let place = Place::var(self.binding(var, 0)?);
                    self.assign(&place, op, rv)?;
                }
                Op::IncDecVar {
                    var,
                    delta,
                    post,
                    keep,
                } => {
                    let place = Place::var(self.binding(var, 0)?);
                    let v = self.inc_dec(&place, delta, post)?;
                    if keep {
                        stack.push(v);
                    }
                }
                Op::LoadPlace => {
                    let place = self.pop_place();
                    stack.push(self.load_place(&place, 0)?);
                }
                Op::AddrOf => {
                    let place = self.pop_place();
                    stack.push(Value::Ptr(place.addr));
                }
                Op::Assign { op, keep } => {
                    let place = self.pop_place();
                    let rv = pop(&mut stack);
                    self.assign(&place, op, rv)?;
                    if keep {
                        stack.push(self.load_place(&place, 0)?);
                    }
                }
                Op::IncDec { delta, post, keep } => {
                    let place = self.pop_place();
                    let v = self.inc_dec(&place, delta, post)?;
                    if keep {
                        stack.push(v);
                    }
                }
                Op::Deref => {
                    let ptr = pop(&mut stack).as_ptr(0)?;
                    stack.push(self.mem.load(ptr, 0)?);
                }
                Op::Neg => {
                    let v = match pop(&mut stack) {
                        Value::Int(v) => Value::Int(v.wrapping_neg()),
                        Value::Double(v) => Value::Double(-v),
                        Value::Ptr(_) => {
                            return Err(InterpError::TypeError {
                                detail: "negating a pointer".into(),
                                line: 0,
                            }
                            .into())
                        }
                    };
                    stack.push(v);
                }
                Op::Not => {
                    let v = pop(&mut stack);
                    stack.push(Value::Int(!v.truthy() as i64));
                }
                Op::BitNot => {
                    let v = pop(&mut stack).as_i64(0)?;
                    stack.push(Value::Int(!v));
                }
                Op::AndThen(to) => {
                    if !pop(&mut stack).truthy() {
                        stack.push(Value::Int(0));
                        pc = to as usize;
                    }
                }
                Op::OrElse(to) => {
                    if pop(&mut stack).truthy() {
                        stack.push(Value::Int(1));
                        pc = to as usize;
                    }
                }
                Op::Truth => {
                    let v = pop(&mut stack);
                    stack.push(Value::Int(v.truthy() as i64));
                }
                Op::Binary(op) => {
                    let b = pop(&mut stack);
                    binary(&mut stack, op, b)?;
                }
                Op::BinaryInt { op, rhs } => binary(&mut stack, op, Value::Int(rhs))?,
                Op::BinaryFloat { op, rhs } => binary(&mut stack, op, Value::Double(rhs))?,
                Op::BinaryVar { op, rhs } => {
                    let b = self.load_var(rhs)?;
                    binary(&mut stack, op, b)?;
                }
                Op::VarInt { lhs, op, rhs } => {
                    let a = self.load_var(lhs)?;
                    stack.push(binop(op, a, Value::Int(rhs), 0)?);
                }
                Op::VarFloat { lhs, op, rhs } => {
                    let a = self.load_var(lhs)?;
                    stack.push(binop(op, a, Value::Double(rhs), 0)?);
                }
                Op::VarVar { lhs, op, rhs } => {
                    let (a, b) = (self.load_var(lhs)?, self.load_var(rhs)?);
                    stack.push(binop(op, a, b, 0)?);
                }
                Op::Cast { to_float } => {
                    let v = pop(&mut stack);
                    stack.push(match (to_float, v) {
                        (true, Value::Int(i)) => Value::Double(i as f64),
                        (false, Value::Double(d)) => Value::Int(d as i64),
                        _ => v,
                    });
                }

                Op::Place(var) => {
                    let place = Place::var(self.binding(var, 0)?);
                    self.places.push(place);
                }
                Op::Index => self.index(pop(&mut stack))?,
                Op::PlaceDeref(pointee) => {
                    let addr = pop(&mut stack).as_ptr(0)?;
                    // If the operand is a known pointer variable, propagate type.
                    let ctype = pointee.and_then(|var| self.binding(var, 0).ok().map(|b| b.ctype));
                    self.places.push(Place::cell(addr, ctype));
                }
                Op::Member(offset) => {
                    let base = self.pop_place();
                    self.places
                        .push(Place::cell(base.addr + offset as usize, Some(CType::Int)));
                }

                Op::CallCheck { func, line } => self.call_check(func as usize, line)?,
                Op::Call { func, line } => {
                    let base = stack.len() - program.code.functions[func as usize].params.len();
                    pc = self.call(func as usize, line, pc, &stack[base..])?;
                    stack.truncate(base);
                }
                Op::ToF64 { line } => {
                    let v = pop(&mut stack).as_f64(line)?;
                    stack.push(Value::Double(v));
                }
                Op::ToI64 { line } => {
                    let v = pop(&mut stack).as_i64(line)?;
                    stack.push(Value::Int(v));
                }
                Op::ToPtr { line } => {
                    let v = pop(&mut stack).as_ptr(line)?;
                    stack.push(Value::Ptr(v));
                }
                Op::Count { line } => {
                    let count = pop(&mut stack).as_i64(line)?;
                    let n = self.message_len(count, line)?;
                    stack.push(Value::Int(n as i64));
                }
                Op::Math(f) => {
                    let b = pop_f64(&mut stack);
                    let a = pop_f64(&mut stack);
                    stack.push(Value::Double(f.apply(a, b)));
                }
                Op::Srand => {
                    let seed = pop_i64(&mut stack);
                    self.rng.srand(seed as u64);
                    stack.push(Value::Int(0));
                }
                Op::Rand => stack.push(Value::Int(self.rng.rand())),
                Op::Abs => {
                    let v = pop_i64(&mut stack);
                    stack.push(Value::Int(v.wrapping_abs()));
                }
                Op::Exit | Op::Abort => {
                    let code = pop_i64(&mut stack);
                    return Err(InterpError::Mpi(world.abort(self.rank, code as i32)).into());
                }
                Op::Malloc { elem, line } => {
                    let bytes = pop_i64(&mut stack);
                    stack.push(self.malloc(bytes, elem, line)?);
                }
                Op::Printf(i) => {
                    let base = stack.len() - program.code.printfs[i as usize].values;
                    let v = self.printf(i as usize, &stack[base..])?;
                    stack.truncate(base);
                    stack.push(v);
                }

                _ => {
                    self.stack = std::mem::take(&mut stack);
                    match self.mpi(*op, pc, world)? {
                        Poll::Ready(next) => {
                            stack = std::mem::take(&mut self.stack);
                            pc = next;
                        }
                        Poll::Pending => {
                            self.pc = pc - 1;
                            self.steps = steps;
                            return Ok(Poll::Pending);
                        }
                    }
                }
            }
        }
    }

    /// The value of a variable.
    #[inline(always)]
    fn load_var(&self, var: VarRef) -> Result<Value, Fault> {
        let place = Place::var(self.binding(var, 0)?);
        self.load_place(&place, 0)
    }

    #[cold]
    fn out_of_steps(&self) -> Fault {
        Box::new(InterpError::StepLimit {
            limit: self.limits.step_limit,
        })
    }

    // -- the stacks --------------------------------------------------------------

    #[inline]
    fn pop_place(&mut self) -> Place {
        self.places.pop().expect("place stack underflow")
    }

    fn pop_i64(&mut self) -> i64 {
        pop_i64(&mut self.stack)
    }

    fn pop_usize(&mut self) -> usize {
        usize_of(pop(&mut self.stack))
    }

    // -- blocks and calls --------------------------------------------------------

    /// Leave `n` marked blocks: what the outermost declared is released.
    fn leave(&mut self, n: usize) {
        let outer = self.marks.len() - n;
        let mark = self.marks[outer];
        self.marks.truncate(outer);
        #[cfg(test)]
        for _ in 0..n {
            self.shadow.pop_scope();
        }
        self.mem.release(mark);
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

    /// Enter `main`, its arguments placeholders; returns its entry point.
    #[inline(never)]
    fn enter_main(&mut self) -> Result<usize, Fault> {
        let program = self.program;
        let main = program
            .main
            .map(|index| &program.code.functions[index as usize])
            .ok_or_else(|| {
                Box::new(InterpError::Undefined {
                    name: "main".into(),
                    line: 1,
                })
            })?;
        let frame = self.mem.push_frame(main.local_names.len());
        #[cfg(test)]
        self.shadow.push_frame();
        self.levels = main.levels;
        self.frames.push(CallFrame {
            ret: MAIN_RETURNS,
            frame,
            marks: self.marks.len(),
            levels: 0,
            func: program.main.expect("main exists") as usize,
        });
        // argc/argv exist but hold placeholder values.
        for p in &main.params {
            let addr = self.bind_param(p)?;
            self.mem.store(addr, Value::Int(0), main.line)?;
        }
        Ok(main.entry as usize)
    }

    #[inline(never)]
    fn call_check(&self, func: usize, line: u32) -> Result<(), Fault> {
        let f = &self.program.code.functions[func];
        if self.depth == MAX_CALL_DEPTH || self.levels + f.levels > MAX_LEVELS {
            return Err(InterpError::CallDepth {
                limit: self.depth,
                line,
            }
            .into());
        }
        Ok(())
    }

    /// Enter user function `func` with its arguments; returns its entry
    /// point.
    #[inline(never)]
    fn call(&mut self, func: usize, line: u32, ret: usize, args: &[Value]) -> Result<usize, Fault> {
        let program = self.program;
        let f = &program.code.functions[func];
        let frame = self.mem.push_frame(f.local_names.len());
        #[cfg(test)]
        self.shadow.push_frame();
        self.frames.push(CallFrame {
            ret,
            frame,
            marks: self.marks.len(),
            levels: f.levels,
            func,
        });
        for (p, &v) in f.params.iter().zip(args) {
            let addr = self.bind_param(p)?;
            if p.is_pointer {
                self.mem.store(addr, v, line)?;
            } else {
                self.mem.store_typed(addr, v, p.ctype, line)?;
            }
        }
        self.depth += 1;
        self.levels += f.levels;
        Ok(f.entry as usize)
    }

    /// Leave the running call; returns where its caller continues, or
    /// `None` when `main` returns.
    #[inline(never)]
    fn ret(&mut self) -> Option<usize> {
        let f = self.frames.pop().expect("a call in progress");
        self.marks.truncate(f.marks);
        #[cfg(test)]
        self.shadow.pop_frame();
        self.mem.pop_frame(f.frame);
        if f.ret == MAIN_RETURNS {
            return None;
        }
        self.depth -= 1;
        self.levels -= f.levels;
        Some(f.ret)
    }

    // -- variables -------------------------------------------------------------

    /// The function running, if any (global initializers run in none).
    fn func(&self) -> Option<usize> {
        self.frames.last().map(|f| f.func)
    }

    /// Execute the declaration of `var`.
    fn bind(&mut self, var: VarRef, binding: Binding) {
        if let Some(slot) = var.slot() {
            self.mem.bind(slot, binding);
        }
        #[cfg(test)]
        self.shadow
            .define(self.program.name(var, self.func()), binding.addr);
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
            .slot()
            .map(|slot| self.mem.binding(slot))
            .filter(|b| b.addr != 0);
        #[cfg(test)]
        self.shadow
            .check(self.program.name(var, self.func()), bound.map(|b| b.addr));
        bound.ok_or_else(|| self.undefined(var, line))
    }

    #[cold]
    fn undefined(&self, var: VarRef, line: u32) -> Fault {
        Box::new(InterpError::Undefined {
            name: self.program.name(var, self.func()).to_string(),
            line,
        })
    }

    // -- declarations ------------------------------------------------------------

    /// The next dimension of the array being declared: whatever its
    /// expression evaluated to at this point of execution.
    #[inline(never)]
    fn dim(&mut self, v: Value, line: u32) -> Result<(), Fault> {
        let n = v.as_i64(line)?;
        if n < 0 {
            return Err(InterpError::OutOfBounds {
                detail: format!("negative array dimension {n}"),
                line,
            }
            .into());
        }
        self.mem.push_dim(n as usize);
        Ok(())
    }

    #[inline(never)]
    fn declare(&mut self, index: usize) -> Result<(), Fault> {
        let program = self.program;
        let d = &program.code.decls[index];
        let dims = self.mem.last_dims(d.dims as usize);
        let mut elems = Some(1usize);
        for &n in self.mem.dims(dims) {
            elems = elems.and_then(|e| e.checked_mul(n));
        }
        // A product past `usize` is past any budget.
        let cells = elems
            .and_then(|e| e.max(1).checked_mul(d.ctype.cells()))
            .unwrap_or(usize::MAX);
        let addr = self.alloc(cells)?;
        self.bind(
            d.var,
            Binding {
                addr,
                ctype: d.ctype,
                dims,
                is_pointer: d.is_pointer,
            },
        );
        if d.init {
            self.inits.push((addr, dims));
        }
        Ok(())
    }

    /// Elements in one step of an array whose *remaining* dims are `inner`.
    fn stride(&self, inner: Dims) -> usize {
        self.mem.dims(inner).iter().product::<usize>().max(1)
    }

    // -- places (lvalues) ----------------------------------------------------

    #[inline(never)]
    fn index(&mut self, idx: Value) -> Result<(), Fault> {
        let line = 0;
        let idx = idx.as_i64(line)?;
        let b = self.pop_place();
        if idx < 0 {
            return Err(InterpError::OutOfBounds {
                detail: format!("negative index {idx}"),
                line,
            }
            .into());
        }
        let idx = idx as usize;
        let elem_cells = b.ctype.map(CType::cells).unwrap_or(1);
        let place = if !b.dims.is_scalar() {
            // Sub-array step: product of trailing dims.
            let inner = b.dims.tail();
            Place {
                addr: b.addr + idx * self.stride(inner) * elem_cells,
                ctype: b.ctype,
                dims: inner,
                is_pointer: false,
            }
        } else if b.is_pointer {
            // Pointer subscript: load the pointer, then offset.
            let ptr = self.mem.load(b.addr, line)?.as_ptr(line)?;
            Place::cell(ptr + idx * elem_cells, b.ctype)
        } else {
            return Err(InterpError::TypeError {
                detail: "subscript of non-array".into(),
                line,
            }
            .into());
        };
        self.places.push(place);
        Ok(())
    }

    #[inline]
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

    #[inline]
    fn store_place(&mut self, p: &Place, v: Value, line: u32) -> Result<(), Fault> {
        match p.ctype {
            Some(ct) if !p.is_pointer => self.mem.store_typed(p.addr, v, ct, line),
            _ => self.mem.store(p.addr, v, line),
        }
    }

    /// Store `rv` into `place`, combined with what it holds under `op`.
    /// (What an assignment evaluates to is the value re-read from the
    /// place, which cannot fail once the store succeeded, so a discarded
    /// one is skipped.)
    #[inline(always)]
    fn assign(&mut self, place: &Place, op: Option<BinOp>, rv: Value) -> Result<(), Fault> {
        let value = match op {
            None => rv,
            Some(op) => {
                let current = self.load_place(place, 0)?;
                binop(op, current, rv, 0)?
            }
        };
        self.store_place(place, value, 0)
    }

    /// `++`/`--` of `place`; returns the old value if `post`, else the new.
    #[inline(always)]
    fn inc_dec(&mut self, place: &Place, delta: i8, post: bool) -> Result<Value, Fault> {
        let delta = i64::from(delta);
        let old = self.load_place(place, 0)?;
        let new = match old {
            Value::Int(v) => Value::Int(v.wrapping_add(delta)),
            Value::Double(v) => Value::Double(v + delta as f64),
            Value::Ptr(p) => Value::Ptr((p as i64).wrapping_add(delta) as usize),
        };
        self.store_place(place, new, 0)?;
        Ok(if post { old } else { new })
    }

    // -- builtins --------------------------------------------------------------

    #[inline(never)]
    fn malloc(&mut self, bytes: i64, elem: CType, line: u32) -> Result<Value, Fault> {
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

    /// Format `printf` number `index` with its `values`; returns what it
    /// printed, as `printf`'s value.
    #[inline(never)]
    fn printf(&mut self, index: usize, values: &[Value]) -> Result<Value, Fault> {
        let p = &self.program.code.printfs[index];
        let mut values = values.iter();
        let pargs: Vec<PrintfArg<'_>> = p
            .args
            .iter()
            .map(|a| match a {
                Some(s) => PrintfArg::Str(s),
                None => PrintfArg::Value(*values.next().expect("a printf value")),
            })
            .collect();
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
        let total = (count as i64).saturating_mul(self.size as i64);
        self.message_len(total, line)
    }

    /// The top `N` operands, deepest first, left on the stack: an op that
    /// may wait pops them only once it completes.
    fn operands<const N: usize>(&self) -> [Value; N] {
        let n = self.stack.len();
        self.stack[n - N..]
            .try_into()
            .expect("operands on the stack")
    }

    fn drop_operands(&mut self, n: usize) {
        self.stack.truncate(self.stack.len() - n);
    }

    /// The `send, count[, root]` operands of a reduce or gather.
    fn rooted_operands(&self, rooted: bool) -> (usize, usize, Option<usize>) {
        let args = &self.stack[self.stack.len() - 2 - usize::from(rooted)..];
        let root = rooted.then(|| i64_of(args[2]) as usize);
        (usize_of(args[0]), usize_of(args[1]), root)
    }

    /// Pop a completed reduce's or gather's operands; a rank that received
    /// nothing continues at `skip`, past evaluating a receive buffer.
    fn rooted_done(&mut self, rooted: bool, received: bool, skip: u32, pc: usize) -> usize {
        self.drop_operands(2 + usize::from(rooted));
        if received {
            pc
        } else {
            skip as usize
        }
    }

    /// Execute an MPI op at `pc - 1`; returns where execution continues,
    /// or `Pending` with the op's operands still on the stack if it waits.
    #[inline(never)]
    fn mpi(&mut self, op: Op, pc: usize, world: &mut Matcher) -> Result<Poll<usize>, Fault> {
        let me = self.rank;
        match op {
            Op::CommRank { line } | Op::CommSize { line } => {
                let ptr = self.pop_usize();
                let v = match op {
                    Op::CommRank { .. } => self.rank,
                    _ => self.size,
                };
                self.mem.store(ptr, Value::Int(v as i64), line)?;
            }
            Op::Wtime => {
                let t = self.start.elapsed().as_secs_f64();
                self.stack.push(Value::Double(t));
            }
            Op::Barrier => ready!(world.barrier(me)?),
            Op::Send { dtype, line } => {
                let tag = self.pop_i64() as i32;
                let dest = self.pop_i64() as usize;
                let count = self.pop_usize();
                let ptr = self.pop_usize();
                match &self.read_buf(ptr, count, dtype, line)? {
                    TypedVec::I32(v) => world.send(me, v, dest, tag)?,
                    TypedVec::I64(v) => world.send(me, v, dest, tag)?,
                    TypedVec::F32(v) => world.send(me, v, dest, tag)?,
                    TypedVec::F64(v) => world.send(me, v, dest, tag)?,
                    TypedVec::U8(v) => world.send(me, v, dest, tag)?,
                }
            }
            Op::Recv {
                dtype,
                status,
                line,
            } => {
                let [ptr, count, source, tag] = self.operands();
                // Negative ranks and tags are the wildcards (`MPI_ANY_SOURCE`).
                let tag = match i64_of(tag) {
                    v if v < 0 => Tag::Any,
                    v => Tag::Value(v as i32),
                };
                let source = match i64_of(source) {
                    v if v < 0 => Source::Any,
                    v => Source::Rank(v as usize),
                };
                let (count, ptr) = (usize_of(count), usize_of(ptr));
                macro_rules! recv_as {
                    ($t:ty, $variant:ident) => {{
                        let mut buf = vec![<$t>::default(); count];
                        let st = ready!(world.recv(me, &mut buf, source, tag)?);
                        self.write_buf(ptr, &TypedVec::$variant(buf), line)?;
                        st
                    }};
                }
                let st = match dtype {
                    MpiDtype::Int => recv_as!(i32, I32),
                    MpiDtype::Long => recv_as!(i64, I64),
                    MpiDtype::Float => recv_as!(f32, F32),
                    MpiDtype::Double => recv_as!(f64, F64),
                    MpiDtype::Byte => recv_as!(u8, U8),
                };
                self.drop_operands(4);
                if status {
                    self.stack.push(Value::Int(st.source as i64));
                    self.stack.push(Value::Int(st.tag as i64));
                    self.stack.push(Value::Int(st.count as i64));
                }
            }
            Op::WriteStatus { line } => {
                let ptr = self.pop_usize();
                let st = Status {
                    count: self.pop_i64() as usize,
                    tag: self.pop_i64() as i32,
                    source: self.pop_i64() as usize,
                };
                self.mem.store(ptr, Value::Int(st.source as i64), line)?;
                self.mem.store(ptr + 1, Value::Int(st.tag as i64), line)?;
                self.mem.store(ptr + 2, Value::Int(st.count as i64), line)?;
            }
            Op::Complete { line } => {
                let ptr = self.pop_usize();
                self.mem.store(ptr, Value::Int(0), line)?;
            }
            Op::Bcast { dtype, line } => {
                let [ptr, count, root] = self.operands();
                let (ptr, count, root) = (usize_of(ptr), usize_of(count), i64_of(root) as usize);
                macro_rules! bcast_as {
                    ($t:ty, $variant:ident) => {{
                        let mut buf = vec![<$t>::default(); count];
                        if me == root {
                            if let TypedVec::$variant(v) = self.read_buf(ptr, count, dtype, line)? {
                                buf = v;
                            }
                        }
                        ready!(world.bcast(me, &mut buf, root)?);
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
                self.drop_operands(3);
            }
            Op::Reduce {
                dtype,
                op,
                rooted,
                skip,
                line,
            } => {
                let (sptr, count, root) = self.rooted_operands(rooted);
                let received = ready!(self.reduce(world, sptr, count, dtype, op, root, line)?);
                return Ok(Poll::Ready(self.rooted_done(rooted, received, skip, pc)));
            }
            Op::Gather {
                dtype,
                rooted,
                skip,
                line,
            } => {
                let (sptr, count, root) = self.rooted_operands(rooted);
                let received = ready!(self.gather(world, sptr, count, dtype, root, line)?);
                return Ok(Poll::Ready(self.rooted_done(rooted, received, skip, pc)));
            }
            Op::WriteBuf { line } => {
                let ptr = self.pop_usize();
                let out = self.bufs.pop().expect("a collective result");
                self.write_buf(ptr, &out, line)?;
            }
            Op::ScatterBegin { dtype, skip, line } => {
                let [count, _, _, root] = self.operands();
                self.world_len(usize_of(count), line)?;
                if me != usize_of(root) {
                    ready!(self.scatter(world, false, dtype, line)?);
                    return Ok(Poll::Ready(skip as usize));
                }
            }
            Op::ScatterRoot { dtype, line } => ready!(self.scatter(world, true, dtype, line)?),
            other => unreachable!("not an MPI op: {other:?}"),
        }
        Ok(Poll::Ready(pc))
    }

    /// Reduce `count` elements at `sptr`; returns whether this rank
    /// receives the result (kept for [`Op::WriteBuf`]).
    #[allow(clippy::too_many_arguments)]
    fn reduce(
        &mut self,
        world: &mut Matcher,
        sptr: usize,
        count: usize,
        dtype: MpiDtype,
        op: ReduceOp,
        root: Option<usize>,
        line: u32,
    ) -> Result<Poll<bool>, Fault> {
        let me = self.rank;
        macro_rules! reduce_as {
            ($t:ty, $variant:ident) => {{
                let send = match self.read_buf(sptr, count, dtype, line)? {
                    TypedVec::$variant(v) => v,
                    _ => unreachable!(),
                };
                let mut out = vec![<$t>::default(); count];
                match root {
                    None => ready!(world.allreduce(me, &send, &mut out, op)?),
                    Some(root) if me == root => {
                        ready!(world.reduce(me, &send, Some(&mut out), op, root)?)
                    }
                    Some(root) => {
                        ready!(world.reduce(me, &send, None, op, root)?);
                        return Ok(Poll::Ready(false));
                    }
                }
                TypedVec::$variant(out)
            }};
        }
        let out = match dtype {
            MpiDtype::Int => reduce_as!(i32, I32),
            MpiDtype::Long => reduce_as!(i64, I64),
            MpiDtype::Float => reduce_as!(f32, F32),
            MpiDtype::Double => reduce_as!(f64, F64),
            MpiDtype::Byte => unreachable!("compiled to an error"),
        };
        self.bufs.push(out);
        Ok(Poll::Ready(true))
    }

    /// Gather `count` elements at `sptr` from every rank; returns whether
    /// this rank receives the result (kept for [`Op::WriteBuf`]).
    fn gather(
        &mut self,
        world: &mut Matcher,
        sptr: usize,
        count: usize,
        dtype: MpiDtype,
        root: Option<usize>,
        line: u32,
    ) -> Result<Poll<bool>, Fault> {
        let me = self.rank;
        let total = self.world_len(count, line)?;
        macro_rules! gather_as {
            ($t:ty, $variant:ident) => {{
                let send = match self.read_buf(sptr, count, dtype, line)? {
                    TypedVec::$variant(v) => v,
                    _ => unreachable!(),
                };
                let mut out = vec![<$t>::default(); total];
                match root {
                    None => ready!(world.allgather(me, &send, &mut out)?),
                    Some(root) if me == root => {
                        ready!(world.gather(me, &send, Some(&mut out), root)?)
                    }
                    Some(root) => {
                        ready!(world.gather(me, &send, None, root)?);
                        return Ok(Poll::Ready(false));
                    }
                }
                TypedVec::$variant(out)
            }};
        }
        let out = match dtype {
            MpiDtype::Int => gather_as!(i32, I32),
            MpiDtype::Long => gather_as!(i64, I64),
            MpiDtype::Float => gather_as!(f32, F32),
            MpiDtype::Double => gather_as!(f64, F64),
            MpiDtype::Byte => gather_as!(u8, U8),
        };
        self.bufs.push(out);
        Ok(Poll::Ready(true))
    }

    /// Scatter with `count, recv, recv_count, root` on the stack, under the
    /// root's send pointer if `root_sends`; pops them once it completes.
    fn scatter(
        &mut self,
        world: &mut Matcher,
        root_sends: bool,
        dtype: MpiDtype,
        line: u32,
    ) -> Result<Poll<()>, Fault> {
        let me = self.rank;
        let n = self.stack.len() - usize::from(root_sends);
        let [count, rptr, recv_count, root] = self.stack[n - 4..n] else {
            unreachable!("scatter operands")
        };
        let total = self.world_len(usize_of(count), line)?;
        let sptr = root_sends.then(|| usize_of(self.stack[n]));
        let (rptr, recv_count, root) =
            (usize_of(rptr), usize_of(recv_count), i64_of(root) as usize);
        macro_rules! scatter_as {
            ($t:ty, $variant:ident) => {{
                let mut mine = vec![<$t>::default(); recv_count];
                match sptr {
                    Some(sptr) => {
                        let all = match self.read_buf(sptr, total, dtype, line)? {
                            TypedVec::$variant(v) => v,
                            _ => unreachable!(),
                        };
                        ready!(world.scatter(me, Some(&all), &mut mine, root)?);
                    }
                    None => ready!(world.scatter(me, None, &mut mine, root)?),
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
        self.stack.truncate(n - 4);
        Ok(Poll::Ready(()))
    }
}

#[inline(always)]
fn pop(stack: &mut Vec<Value>) -> Value {
    stack.pop().expect("operand stack underflow")
}

/// A value a conversion op left (an integer, double or pointer), as an
/// integer.
fn i64_of(v: Value) -> i64 {
    match v {
        Value::Int(v) => v,
        Value::Double(v) => v as i64,
        Value::Ptr(p) => p as i64,
    }
}

/// Pop a value a conversion op left.
fn pop_i64(stack: &mut Vec<Value>) -> i64 {
    i64_of(pop(stack))
}

fn pop_f64(stack: &mut Vec<Value>) -> f64 {
    match pop(stack) {
        Value::Double(v) => v,
        Value::Int(v) => v as f64,
        Value::Ptr(p) => p as f64,
    }
}

/// Replace the top value `a` with `a op b`.
#[inline(always)]
fn binary(stack: &mut [Value], op: BinOp, b: Value) -> Result<(), Fault> {
    let a = stack.last_mut().expect("operand stack underflow");
    *a = binop(op, *a, b, 0)?;
    Ok(())
}

/// A count, pointer or rank a conversion op left on the stack, as `as
/// usize` converts it.
fn usize_of(v: Value) -> usize {
    match v {
        Value::Int(v) => v as usize,
        Value::Double(v) => v as usize,
        Value::Ptr(p) => p,
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

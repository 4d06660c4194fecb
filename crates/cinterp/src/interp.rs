//! The tree-walking interpreter: statement/expression evaluation over the
//! flat-cell memory, user-function calls, stdlib builtins, and the MPI
//! bindings into `mpirical-sim`.

use crate::builtins::{format_printf, math_builtin, PrintfArg, Rng, RAND_MAX};
use crate::error::InterpError;
use crate::machine::{CType, Memory, Value, VarInfo};
use mpirical_cparse::{
    BinOp, Block, Declaration, Expr, ForInit, FunctionDef, Init, Item, Program, Stmt, UnOp,
};
use mpirical_sim::{Comm, ReduceOp, Source, Status, Tag};
use std::collections::HashMap;

/// Per-rank execution limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Statement/iteration budget before aborting as a runaway loop — the
    /// only bound on a rank that never stops computing (the simulator has
    /// no timer).
    pub step_limit: u64,
    /// Memory-cell budget (16 bytes/cell) before aborting as a runaway
    /// allocation. The default (~64 MiB per rank) is far above anything a
    /// legitimate benchmark program needs.
    pub cell_limit: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            step_limit: 50_000_000,
            cell_limit: 4_000_000,
        }
    }
}

/// Control-flow signal from statement execution.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// A resolved storage location.
#[derive(Debug, Clone)]
struct Place {
    addr: usize,
    ctype: Option<CType>,
    /// Remaining array dims at this place (non-empty ⇒ the place designates
    /// a sub-array, which decays to a pointer as an rvalue).
    dims: Vec<usize>,
    is_pointer: bool,
}

/// MPI datatype selector from `MPI_INT`-style identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MpiDtype {
    Int,
    Long,
    Float,
    Double,
    Byte,
}

/// A typed message buffer bridging cells ↔ the simulator's generics.
enum TypedVec {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
    U8(Vec<u8>),
}

pub(crate) struct Interp<'a> {
    prog: &'a Program,
    comm: &'a Comm,
    mem: Memory,
    rng: Rng,
    output: String,
    steps: u64,
    limits: Limits,
    functions: HashMap<&'a str, &'a FunctionDef>,
}

impl<'a> Interp<'a> {
    pub fn new(prog: &'a Program, comm: &'a Comm, limits: Limits) -> Interp<'a> {
        let functions = prog.functions().map(|f| (f.name.as_str(), f)).collect();
        Interp {
            prog,
            comm,
            mem: Memory::new(),
            rng: Rng::new(comm.rank() as u64 + 1),
            output: String::new(),
            steps: 0,
            limits,
            functions,
        }
    }

    /// Execute `main`; returns `(exit code, captured stdout)`.
    pub fn run(mut self) -> Result<(i64, String), InterpError> {
        // Globals first.
        for item in &self.prog.items {
            if let Item::Declaration(d) = item {
                self.exec_declaration(d)?;
            }
        }
        let main = self
            .functions
            .get("main")
            .copied()
            .ok_or(InterpError::Undefined {
                name: "main".into(),
                line: 1,
            })?;
        self.mem.push_frame();
        // argc/argv exist but hold placeholder values.
        for p in &main.params {
            let addr = self.alloc_checked(1)?;
            self.mem.define(
                &p.name,
                VarInfo {
                    addr,
                    ctype: CType::from_words(&p.type_spec.words),
                    dims: vec![],
                    is_pointer: p.pointer_depth > 0 || p.array,
                },
            );
            self.mem.store(addr, Value::Int(0), main.line)?;
        }
        let flow = self.exec_block(&main.body)?;
        self.mem.pop_frame();
        let code = match flow {
            Flow::Return(v) => v.as_i64(0).unwrap_or(0),
            _ => 0,
        };
        Ok((code, self.output))
    }

    /// Allocate `n` cells, enforcing the memory budget.
    fn alloc_checked(&mut self, n: usize) -> Result<usize, InterpError> {
        if self.mem.size().saturating_add(n.max(1)) > self.limits.cell_limit {
            return Err(InterpError::MemoryLimit {
                limit: self.limits.cell_limit,
            });
        }
        Ok(self.mem.alloc(n))
    }

    fn tick(&mut self) -> Result<(), InterpError> {
        self.steps += 1;
        if self.steps > self.limits.step_limit {
            return Err(InterpError::StepLimit {
                limit: self.limits.step_limit,
            });
        }
        Ok(())
    }

    // -- statements ----------------------------------------------------------

    fn exec_block(&mut self, b: &Block) -> Result<Flow, InterpError> {
        self.mem.push_scope();
        let mut flow = Flow::Normal;
        for s in &b.stmts {
            flow = self.exec_stmt(s)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        self.mem.pop_scope();
        Ok(flow)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow, InterpError> {
        self.tick()?;
        match s {
            Stmt::Decl(d) => {
                self.exec_declaration(d)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr { expr, .. } => {
                if let Some(e) = expr {
                    self.eval(e)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_stmt(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec_stmt(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body, .. } => {
                while self.eval(cond)?.truthy() {
                    self.tick()?;
                    match self.exec_stmt(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond, .. } => {
                loop {
                    self.tick()?;
                    match self.exec_stmt(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
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
                ..
            } => {
                self.mem.push_scope();
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
                        Flow::Return(v) => break Flow::Return(v),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(st) = step {
                        self.eval(st)?;
                    }
                };
                self.mem.pop_scope();
                Ok(result)
            }
            Stmt::Return { expr, .. } => {
                let v = match expr {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Continue { .. } => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(b),
            Stmt::Error { line, lines } => Err(InterpError::Unsupported {
                detail: format!("unparsed region `{}`", lines.join(" ")),
                line: *line,
            }),
        }
    }

    fn exec_declaration(&mut self, d: &Declaration) -> Result<(), InterpError> {
        let ctype = CType::from_words(&d.type_spec.words);
        for decl in &d.declarators {
            // Resolve array dims (must be constant expressions at this point
            // of execution).
            let mut dims = Vec::with_capacity(decl.arrays.len());
            for dim in &decl.arrays {
                let n = match dim {
                    Some(e) => self.eval(e)?.as_i64(d.line)?,
                    None => 0,
                };
                if n < 0 {
                    return Err(InterpError::OutOfBounds {
                        detail: format!("negative array dimension {n}"),
                        line: d.line,
                    });
                }
                dims.push(n as usize);
            }
            let info = VarInfo {
                addr: 0,
                ctype,
                dims: dims.clone(),
                is_pointer: decl.pointer_depth > 0,
            };
            let total = info.total_cells();
            let addr = self.alloc_checked(total)?;
            let info = VarInfo { addr, ..info };
            self.mem.define(&decl.name, info.clone());
            if let Some(init) = &decl.init {
                self.init_into(addr, ctype, &dims, init, d.line)?;
            }
        }
        Ok(())
    }

    fn init_into(
        &mut self,
        addr: usize,
        ctype: CType,
        dims: &[usize],
        init: &Init,
        line: u32,
    ) -> Result<(), InterpError> {
        match init {
            Init::Expr(e) => {
                let v = self.eval(e)?;
                self.mem.store_typed(addr, v, ctype, line)
            }
            Init::List(items) => {
                let stride: usize = dims.iter().skip(1).product::<usize>().max(1);
                for (i, item) in items.iter().enumerate() {
                    let sub = addr + i * stride * ctype.cells();
                    match item {
                        Init::List(_) => {
                            self.init_into(sub, ctype, &dims[1.min(dims.len())..], item, line)?
                        }
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

    // -- places (lvalues) ----------------------------------------------------

    fn place(&mut self, e: &Expr, line: u32) -> Result<Place, InterpError> {
        match e {
            Expr::Ident(name) => {
                let info =
                    self.mem
                        .lookup(name)
                        .cloned()
                        .ok_or_else(|| InterpError::Undefined {
                            name: name.clone(),
                            line,
                        })?;
                Ok(Place {
                    addr: info.addr,
                    ctype: Some(info.ctype),
                    dims: info.dims,
                    is_pointer: info.is_pointer,
                })
            }
            Expr::Index { base, index } => {
                let b = self.place(base, line)?;
                let idx = self.eval(index)?.as_i64(line)?;
                if idx < 0 {
                    return Err(InterpError::OutOfBounds {
                        detail: format!("negative index {idx}"),
                        line,
                    });
                }
                let idx = idx as usize;
                let elem_cells = b.ctype.map(CType::cells).unwrap_or(1);
                if !b.dims.is_empty() {
                    // Sub-array step: product of trailing dims.
                    let stride: usize = b.dims[1..].iter().product::<usize>().max(1);
                    Ok(Place {
                        addr: b.addr + idx * stride * elem_cells,
                        ctype: b.ctype,
                        dims: b.dims[1..].to_vec(),
                        is_pointer: false,
                    })
                } else if b.is_pointer {
                    // Pointer subscript: load the pointer, then offset.
                    let ptr = self.mem.load(b.addr, line)?.as_ptr(line)?;
                    Ok(Place {
                        addr: ptr + idx * elem_cells,
                        ctype: b.ctype,
                        dims: vec![],
                        is_pointer: false,
                    })
                } else {
                    Err(InterpError::TypeError {
                        detail: "subscript of non-array".into(),
                        line,
                    })
                }
            }
            Expr::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                let ptr = self.eval(operand)?.as_ptr(line)?;
                // If the operand is a known pointer variable, propagate type.
                let ctype = match operand.as_ref() {
                    Expr::Ident(name) => self.mem.lookup(name).map(|v| v.ctype),
                    _ => None,
                };
                Ok(Place {
                    addr: ptr,
                    ctype,
                    dims: vec![],
                    is_pointer: false,
                })
            }
            Expr::Member { base, field, .. } => {
                let b = self.place(base, line)?;
                let offset = match field.as_str() {
                    "MPI_SOURCE" => 0,
                    "MPI_TAG" => 1,
                    _ => 2,
                };
                Ok(Place {
                    addr: b.addr + offset,
                    ctype: Some(CType::Int),
                    dims: vec![],
                    is_pointer: false,
                })
            }
            other => Err(InterpError::TypeError {
                detail: format!("not an lvalue: {other:?}"),
                line,
            }),
        }
    }

    fn load_place(&self, p: &Place, line: u32) -> Result<Value, InterpError> {
        if !p.dims.is_empty() {
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

    fn store_place(&mut self, p: &Place, v: Value, line: u32) -> Result<(), InterpError> {
        match p.ctype {
            Some(ct) if !p.is_pointer => self.mem.store_typed(p.addr, v, ct, line),
            _ => self.mem.store(p.addr, v, line),
        }
    }

    // -- expressions ----------------------------------------------------------

    fn eval(&mut self, e: &Expr) -> Result<Value, InterpError> {
        match e {
            Expr::IntLit(v) => Ok(Value::Int(*v)),
            Expr::FloatLit(v) => Ok(Value::Double(*v)),
            Expr::CharLit(c) => Ok(Value::Int(*c as i64)),
            Expr::StrLit(_) => Err(InterpError::Unsupported {
                detail: "string value outside printf".into(),
                line: 0,
            }),
            Expr::Ident(name) => self.eval_ident(name),
            Expr::Call { callee, args, line } => self.call(callee, args, *line),
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit logicals.
                match op {
                    BinOp::And => {
                        if !self.eval(lhs)?.truthy() {
                            return Ok(Value::Int(0));
                        }
                        return Ok(Value::Int(self.eval(rhs)?.truthy() as i64));
                    }
                    BinOp::Or => {
                        if self.eval(lhs)?.truthy() {
                            return Ok(Value::Int(1));
                        }
                        return Ok(Value::Int(self.eval(rhs)?.truthy() as i64));
                    }
                    _ => {}
                }
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                self.binop(*op, a, b, 0)
            }
            Expr::Unary { op, operand } => self.eval_unary(*op, operand),
            Expr::Assign { op, lhs, rhs } => {
                let line = 0;
                let rv = self.eval(rhs)?;
                let place = self.place(lhs, line)?;
                let value = match op {
                    None => rv,
                    Some(a) => {
                        let current = self.load_place(&place, line)?;
                        self.binop(a.to_binop(), current, rv, line)?
                    }
                };
                self.store_place(&place, value, line)?;
                self.load_place(&place, line)
            }
            Expr::Index { .. } | Expr::Member { .. } => {
                let place = self.place(e, 0)?;
                self.load_place(&place, 0)
            }
            Expr::Cast {
                ty,
                pointer_depth,
                operand,
            } => {
                // `(T *)malloc(n)` sizes the allocation by T.
                if *pointer_depth > 0 {
                    if let Expr::Call { callee, args, line } = operand.as_ref() {
                        if callee == "malloc" {
                            return self.malloc(args, CType::from_words(&ty.words), *line);
                        }
                    }
                    return self.eval(operand);
                }
                let v = self.eval(operand)?;
                let target = CType::from_words(&ty.words);
                Ok(match (target.is_float(), v) {
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
            Expr::SizeofType { ty, pointer_depth } => {
                let bytes = if *pointer_depth > 0 {
                    8
                } else {
                    CType::from_words(&ty.words).size_bytes()
                };
                Ok(Value::Int(bytes as i64))
            }
            Expr::Comma { lhs, rhs } => {
                self.eval(lhs)?;
                self.eval(rhs)
            }
        }
    }

    fn eval_ident(&mut self, name: &str) -> Result<Value, InterpError> {
        // Well-known constants.
        match name {
            "NULL" => return Ok(Value::Ptr(0)),
            "RAND_MAX" => return Ok(Value::Int(RAND_MAX)),
            "MPI_COMM_WORLD" => return Ok(Value::Int(0)),
            "MPI_SUCCESS" => return Ok(Value::Int(0)),
            "MPI_ANY_SOURCE" => return Ok(Value::Int(-1)),
            "MPI_ANY_TAG" => return Ok(Value::Int(-1)),
            _ => {}
        }
        let place = self.place(&Expr::Ident(name.to_string()), 0)?;
        self.load_place(&place, 0)
    }

    fn eval_unary(&mut self, op: UnOp, operand: &Expr) -> Result<Value, InterpError> {
        let line = 0;
        match op {
            UnOp::AddrOf => {
                let p = self.place(operand, line)?;
                Ok(Value::Ptr(p.addr))
            }
            UnOp::Deref => {
                let ptr = self.eval(operand)?.as_ptr(line)?;
                self.mem.load(ptr, line)
            }
            UnOp::Neg => match self.eval(operand)? {
                Value::Int(v) => Ok(Value::Int(-v)),
                Value::Double(v) => Ok(Value::Double(-v)),
                Value::Ptr(_) => Err(InterpError::TypeError {
                    detail: "negating a pointer".into(),
                    line,
                }),
            },
            UnOp::Not => Ok(Value::Int(!self.eval(operand)?.truthy() as i64)),
            UnOp::BitNot => Ok(Value::Int(!self.eval(operand)?.as_i64(line)?)),
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                let place = self.place(operand, line)?;
                let old = self.load_place(&place, line)?;
                let delta = if matches!(op, UnOp::PreInc | UnOp::PostInc) {
                    1.0
                } else {
                    -1.0
                };
                let new = match old {
                    Value::Int(v) => Value::Int(v + delta as i64),
                    Value::Double(v) => Value::Double(v + delta),
                    Value::Ptr(p) => Value::Ptr((p as i64 + delta as i64) as usize),
                };
                self.store_place(&place, new, line)?;
                Ok(if matches!(op, UnOp::PostInc | UnOp::PostDec) {
                    old
                } else {
                    new
                })
            }
        }
    }

    fn binop(&mut self, op: BinOp, a: Value, b: Value, line: u32) -> Result<Value, InterpError> {
        use BinOp::*;
        // Pointer arithmetic: ptr ± int.
        if let (Value::Ptr(p), Value::Int(i)) = (a, b) {
            match op {
                Add => return Ok(Value::Ptr((p as i64 + i) as usize)),
                Sub => return Ok(Value::Ptr((p as i64 - i) as usize)),
                Eq => return Ok(Value::Int((p as i64 == i) as i64)),
                Ne => return Ok(Value::Int((p as i64 != i) as i64)),
                _ => {}
            }
        }
        let float = matches!(a, Value::Double(_)) || matches!(b, Value::Double(_));
        if float {
            let x = a.as_f64(line)?;
            let y = b.as_f64(line)?;
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
                    })
                }
            })
        } else {
            let x = a.as_i64(line)?;
            let y = b.as_i64(line)?;
            Ok(match op {
                Add => Value::Int(x.wrapping_add(y)),
                Sub => Value::Int(x.wrapping_sub(y)),
                Mul => Value::Int(x.wrapping_mul(y)),
                Div => {
                    if y == 0 {
                        return Err(InterpError::DivideByZero { line });
                    }
                    Value::Int(x.wrapping_div(y))
                }
                Rem => {
                    if y == 0 {
                        return Err(InterpError::DivideByZero { line });
                    }
                    Value::Int(x.wrapping_rem(y))
                }
                Lt => Value::Int((x < y) as i64),
                Gt => Value::Int((x > y) as i64),
                Le => Value::Int((x <= y) as i64),
                Ge => Value::Int((x >= y) as i64),
                Eq => Value::Int((x == y) as i64),
                Ne => Value::Int((x != y) as i64),
                And | Or => unreachable!("short-circuited"),
                BitAnd => Value::Int(x & y),
                BitOr => Value::Int(x | y),
                BitXor => Value::Int(x ^ y),
                Shl => Value::Int(x.wrapping_shl(y as u32)),
                Shr => Value::Int(x.wrapping_shr(y as u32)),
            })
        }
    }

    // -- calls -----------------------------------------------------------------

    fn call(&mut self, callee: &str, args: &[Expr], line: u32) -> Result<Value, InterpError> {
        if callee.starts_with("MPI_") {
            return self.mpi_call(callee, args, line);
        }
        match callee {
            "printf" => return self.printf(args, line),
            "fprintf" => {
                // fprintf(stderr, fmt, …) — drop the stream argument.
                return self.printf(&args[1..], line);
            }
            "malloc" => return self.malloc(args, CType::Long, line),
            "free" => return Ok(Value::Int(0)),
            "srand" => {
                let seed = self.eval(&args[0])?.as_i64(line)?;
                self.rng.srand(seed as u64);
                return Ok(Value::Int(0));
            }
            "rand" => return Ok(Value::Int(self.rng.rand())),
            "abs" | "labs" => {
                let v = self.eval(&args[0])?.as_i64(line)?;
                return Ok(Value::Int(v.abs()));
            }
            "exit" => {
                let code = self.eval(&args[0])?.as_i64(line)?;
                return Err(InterpError::Mpi(self.comm.abort(code as i32)));
            }
            _ => {}
        }
        // Math builtins.
        if args.len() <= 2 {
            let mut fargs = Vec::with_capacity(args.len());
            let mut numeric = true;
            for a in args {
                // Probe without committing on failure.
                match self.eval(a) {
                    Ok(v) => match v.as_f64(line) {
                        Ok(f) => fargs.push(f),
                        Err(_) => {
                            numeric = false;
                            break;
                        }
                    },
                    Err(e) => return Err(e),
                }
            }
            if numeric {
                if let Some(result) = math_builtin(callee, &fargs) {
                    return Ok(Value::Double(result));
                }
            }
        }
        // User-defined function.
        let f = self
            .functions
            .get(callee)
            .copied()
            .ok_or_else(|| InterpError::Undefined {
                name: callee.to_string(),
                line,
            })?;
        if f.params.len() != args.len() {
            return Err(InterpError::TypeError {
                detail: format!(
                    "{callee} expects {} args, got {}",
                    f.params.len(),
                    args.len()
                ),
                line,
            });
        }
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval(a)?);
        }
        self.mem.push_frame();
        for (p, v) in f.params.iter().zip(values) {
            let ctype = CType::from_words(&p.type_spec.words);
            let addr = self.alloc_checked(1)?;
            let is_pointer = p.pointer_depth > 0 || p.array;
            self.mem.define(
                &p.name,
                VarInfo {
                    addr,
                    ctype,
                    dims: vec![],
                    is_pointer,
                },
            );
            if is_pointer {
                self.mem.store(addr, v, line)?;
            } else {
                self.mem.store_typed(addr, v, ctype, line)?;
            }
        }
        let flow = self.exec_block(&f.body)?;
        self.mem.pop_frame();
        Ok(match flow {
            Flow::Return(v) => v,
            _ => Value::Int(0),
        })
    }

    fn printf(&mut self, args: &[Expr], line: u32) -> Result<Value, InterpError> {
        let fmt = match args.first() {
            Some(Expr::StrLit(s)) => s.clone(),
            _ => {
                return Err(InterpError::Unsupported {
                    detail: "printf needs a literal format string".into(),
                    line,
                })
            }
        };
        let mut pargs = Vec::with_capacity(args.len().saturating_sub(1));
        for a in &args[1..] {
            match a {
                Expr::StrLit(s) => pargs.push(PrintfArg::Str(s.clone())),
                other => pargs.push(PrintfArg::Value(self.eval(other)?)),
            }
        }
        let text = format_printf(&fmt, &pargs, line)?;
        self.output.push_str(&text);
        Ok(Value::Int(text.len() as i64))
    }

    fn malloc(&mut self, args: &[Expr], elem: CType, line: u32) -> Result<Value, InterpError> {
        let bytes = self.eval(&args[0])?.as_i64(line)?;
        if bytes < 0 {
            return Err(InterpError::OutOfBounds {
                detail: format!("malloc({bytes})"),
                line,
            });
        }
        let cells = (bytes as usize).div_ceil(elem.size_bytes()).max(1);
        Ok(Value::Ptr(self.alloc_checked(cells)?))
    }

    // -- MPI bindings -----------------------------------------------------------

    fn dtype_of(&self, e: &Expr, line: u32) -> Result<MpiDtype, InterpError> {
        match e {
            Expr::Ident(name) => Ok(match name.as_str() {
                "MPI_INT" => MpiDtype::Int,
                "MPI_LONG" | "MPI_LONG_LONG" | "MPI_LONG_LONG_INT" => MpiDtype::Long,
                "MPI_FLOAT" => MpiDtype::Float,
                "MPI_DOUBLE" => MpiDtype::Double,
                "MPI_CHAR" | "MPI_BYTE" | "MPI_UNSIGNED_CHAR" => MpiDtype::Byte,
                other => {
                    return Err(InterpError::Unsupported {
                        detail: format!("MPI datatype {other}"),
                        line,
                    })
                }
            }),
            _ => Err(InterpError::TypeError {
                detail: "expected an MPI datatype constant".into(),
                line,
            }),
        }
    }

    fn op_of(&self, e: &Expr, line: u32) -> Result<ReduceOp, InterpError> {
        match e {
            Expr::Ident(name) => Ok(match name.as_str() {
                "MPI_SUM" => ReduceOp::Sum,
                "MPI_PROD" => ReduceOp::Prod,
                "MPI_MIN" => ReduceOp::Min,
                "MPI_MAX" => ReduceOp::Max,
                other => {
                    return Err(InterpError::Unsupported {
                        detail: format!("MPI op {other}"),
                        line,
                    })
                }
            }),
            _ => Err(InterpError::TypeError {
                detail: "expected an MPI_Op constant".into(),
                line,
            }),
        }
    }

    fn read_buf(
        &self,
        ptr: usize,
        count: usize,
        dtype: MpiDtype,
        line: u32,
    ) -> Result<TypedVec, InterpError> {
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

    fn write_buf(&mut self, ptr: usize, data: &TypedVec, line: u32) -> Result<(), InterpError> {
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

    fn write_status(
        &mut self,
        status_arg: &Expr,
        st: Status,
        line: u32,
    ) -> Result<(), InterpError> {
        if let Expr::Ident(name) = status_arg {
            if name == "MPI_STATUS_IGNORE" || name == "MPI_STATUSES_IGNORE" {
                return Ok(());
            }
        }
        let ptr = self.eval(status_arg)?.as_ptr(line)?;
        self.mem.store(ptr, Value::Int(st.source as i64), line)?;
        self.mem.store(ptr + 1, Value::Int(st.tag as i64), line)?;
        self.mem.store(ptr + 2, Value::Int(st.count as i64), line)?;
        Ok(())
    }

    fn source_of(&mut self, e: &Expr, line: u32) -> Result<Source, InterpError> {
        if let Expr::Ident(name) = e {
            if name == "MPI_ANY_SOURCE" {
                return Ok(Source::Any);
            }
        }
        let v = self.eval(e)?.as_i64(line)?;
        if v < 0 {
            Ok(Source::Any)
        } else {
            Ok(Source::Rank(v as usize))
        }
    }

    fn tag_of(&mut self, e: &Expr, line: u32) -> Result<Tag, InterpError> {
        if let Expr::Ident(name) = e {
            if name == "MPI_ANY_TAG" {
                return Ok(Tag::Any);
            }
        }
        let v = self.eval(e)?.as_i64(line)?;
        if v < 0 {
            Ok(Tag::Any)
        } else {
            Ok(Tag::Value(v as i32))
        }
    }

    fn mpi_call(&mut self, name: &str, args: &[Expr], line: u32) -> Result<Value, InterpError> {
        let ok = Value::Int(0); // MPI_SUCCESS
        macro_rules! arg {
            ($i:expr) => {
                args.get($i).ok_or(InterpError::TypeError {
                    detail: format!("{name}: missing argument {}", $i),
                    line,
                })?
            };
        }
        match name {
            "MPI_Init" | "MPI_Finalize" => Ok(ok),
            "MPI_Comm_rank" => {
                let ptr = self.eval(arg!(1))?.as_ptr(line)?;
                self.mem
                    .store(ptr, Value::Int(self.comm.rank() as i64), line)?;
                Ok(ok)
            }
            "MPI_Comm_size" => {
                let ptr = self.eval(arg!(1))?.as_ptr(line)?;
                self.mem
                    .store(ptr, Value::Int(self.comm.size() as i64), line)?;
                Ok(ok)
            }
            "MPI_Wtime" => Ok(Value::Double(self.comm.wtime())),
            "MPI_Barrier" => {
                self.comm.barrier()?;
                Ok(ok)
            }
            "MPI_Abort" => {
                let code = self.eval(arg!(1))?.as_i64(line)?;
                Err(InterpError::Mpi(self.comm.abort(code as i32)))
            }
            "MPI_Send" | "MPI_Ssend" | "MPI_Rsend" | "MPI_Bsend" => {
                let ptr = self.eval(arg!(0))?.as_ptr(line)?;
                let count = self.eval(arg!(1))?.as_i64(line)? as usize;
                let dtype = self.dtype_of(arg!(2), line)?;
                let dest = self.eval(arg!(3))?.as_i64(line)? as usize;
                let tag = self.eval(arg!(4))?.as_i64(line)? as i32;
                let data = self.read_buf(ptr, count, dtype, line)?;
                match &data {
                    TypedVec::I32(v) => self.comm.send(v, dest, tag)?,
                    TypedVec::I64(v) => self.comm.send(v, dest, tag)?,
                    TypedVec::F32(v) => self.comm.send(v, dest, tag)?,
                    TypedVec::F64(v) => self.comm.send(v, dest, tag)?,
                    TypedVec::U8(v) => self.comm.send(v, dest, tag)?,
                }
                Ok(ok)
            }
            "MPI_Isend" => {
                // Buffered send completes immediately; the request cell (arg
                // 6) is marked complete.
                self.mpi_call("MPI_Send", &args[..5.min(args.len())], line)?;
                if let Some(req) = args.get(6) {
                    let ptr = self.eval(req)?.as_ptr(line)?;
                    self.mem.store(ptr, Value::Int(0), line)?;
                }
                Ok(ok)
            }
            "MPI_Recv" | "MPI_Irecv" => {
                let ptr = self.eval(arg!(0))?.as_ptr(line)?;
                let count = self.eval(arg!(1))?.as_i64(line)? as usize;
                let dtype = self.dtype_of(arg!(2), line)?;
                let source = self.source_of(arg!(3), line)?;
                let tag = self.tag_of(arg!(4), line)?;
                let st = match dtype {
                    MpiDtype::Int => {
                        let mut buf = vec![0i32; count];
                        let st = self.comm.recv(&mut buf, source, tag)?;
                        self.write_buf(ptr, &TypedVec::I32(buf), line)?;
                        st
                    }
                    MpiDtype::Long => {
                        let mut buf = vec![0i64; count];
                        let st = self.comm.recv(&mut buf, source, tag)?;
                        self.write_buf(ptr, &TypedVec::I64(buf), line)?;
                        st
                    }
                    MpiDtype::Float => {
                        let mut buf = vec![0f32; count];
                        let st = self.comm.recv(&mut buf, source, tag)?;
                        self.write_buf(ptr, &TypedVec::F32(buf), line)?;
                        st
                    }
                    MpiDtype::Double => {
                        let mut buf = vec![0f64; count];
                        let st = self.comm.recv(&mut buf, source, tag)?;
                        self.write_buf(ptr, &TypedVec::F64(buf), line)?;
                        st
                    }
                    MpiDtype::Byte => {
                        let mut buf = vec![0u8; count];
                        let st = self.comm.recv(&mut buf, source, tag)?;
                        self.write_buf(ptr, &TypedVec::U8(buf), line)?;
                        st
                    }
                };
                if name == "MPI_Recv" {
                    if let Some(status) = args.get(6) {
                        self.write_status(status, st, line)?;
                    }
                } else if let Some(req) = args.get(6) {
                    let ptr = self.eval(req)?.as_ptr(line)?;
                    self.mem.store(ptr, Value::Int(0), line)?;
                }
                Ok(ok)
            }
            "MPI_Wait" => {
                // Requests complete eagerly; zero the status if provided.
                if let Some(status) = args.get(1) {
                    self.write_status(
                        status,
                        Status {
                            source: 0,
                            tag: 0,
                            count: 0,
                        },
                        line,
                    )?;
                }
                Ok(ok)
            }
            "MPI_Sendrecv" => {
                let sptr = self.eval(arg!(0))?.as_ptr(line)?;
                let scount = self.eval(arg!(1))?.as_i64(line)? as usize;
                let sdtype = self.dtype_of(arg!(2), line)?;
                let dest = self.eval(arg!(3))?.as_i64(line)? as usize;
                let stag = self.eval(arg!(4))?.as_i64(line)? as i32;
                // Send side first (buffered, never blocks).
                let data = self.read_buf(sptr, scount, sdtype, line)?;
                match &data {
                    TypedVec::I32(v) => self.comm.send(v, dest, stag)?,
                    TypedVec::I64(v) => self.comm.send(v, dest, stag)?,
                    TypedVec::F32(v) => self.comm.send(v, dest, stag)?,
                    TypedVec::F64(v) => self.comm.send(v, dest, stag)?,
                    TypedVec::U8(v) => self.comm.send(v, dest, stag)?,
                }
                // Receive side = MPI_Recv with args 5..
                let recv_args: Vec<Expr> = args[5..].to_vec();
                self.mpi_call("MPI_Recv", &recv_args, line)
            }
            "MPI_Bcast" => {
                let ptr = self.eval(arg!(0))?.as_ptr(line)?;
                let count = self.eval(arg!(1))?.as_i64(line)? as usize;
                let dtype = self.dtype_of(arg!(2), line)?;
                let root = self.eval(arg!(3))?.as_i64(line)? as usize;
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
                Ok(ok)
            }
            "MPI_Reduce" | "MPI_Allreduce" => {
                let all = name == "MPI_Allreduce";
                let sptr = self.eval(arg!(0))?.as_ptr(line)?;
                let rptr_expr = arg!(1).clone();
                let count = self.eval(arg!(2))?.as_i64(line)? as usize;
                let dtype = self.dtype_of(arg!(3), line)?;
                let op = self.op_of(arg!(4), line)?;
                let root = if all {
                    0
                } else {
                    self.eval(arg!(5))?.as_i64(line)? as usize
                };
                macro_rules! reduce_as {
                    ($t:ty, $variant:ident) => {{
                        let send = match self.read_buf(sptr, count, dtype, line)? {
                            TypedVec::$variant(v) => v,
                            _ => unreachable!(),
                        };
                        let mut recv = vec![<$t>::default(); count];
                        if all {
                            self.comm.allreduce(&send, &mut recv, op)?;
                            let rptr = self.eval(&rptr_expr)?.as_ptr(line)?;
                            self.write_buf(rptr, &TypedVec::$variant(recv), line)?;
                        } else if self.comm.rank() == root {
                            self.comm.reduce(&send, Some(&mut recv), op, root)?;
                            let rptr = self.eval(&rptr_expr)?.as_ptr(line)?;
                            self.write_buf(rptr, &TypedVec::$variant(recv), line)?;
                        } else {
                            self.comm.reduce(&send, None, op, root)?;
                        }
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
                        })
                    }
                }
                Ok(ok)
            }
            "MPI_Gather" | "MPI_Allgather" => {
                let all = name == "MPI_Allgather";
                let sptr = self.eval(arg!(0))?.as_ptr(line)?;
                let scount = self.eval(arg!(1))?.as_i64(line)? as usize;
                let sdtype = self.dtype_of(arg!(2), line)?;
                let rptr_expr = arg!(3).clone();
                let root = if all {
                    0
                } else {
                    self.eval(arg!(6))?.as_i64(line)? as usize
                };
                let total = scount * self.comm.size();
                macro_rules! gather_as {
                    ($t:ty, $variant:ident) => {{
                        let send = match self.read_buf(sptr, scount, sdtype, line)? {
                            TypedVec::$variant(v) => v,
                            _ => unreachable!(),
                        };
                        let mut recv = vec![<$t>::default(); total];
                        if all {
                            self.comm.allgather(&send, &mut recv)?;
                            let rptr = self.eval(&rptr_expr)?.as_ptr(line)?;
                            self.write_buf(rptr, &TypedVec::$variant(recv), line)?;
                        } else if self.comm.rank() == root {
                            self.comm.gather(&send, Some(&mut recv), root)?;
                            let rptr = self.eval(&rptr_expr)?.as_ptr(line)?;
                            self.write_buf(rptr, &TypedVec::$variant(recv), line)?;
                        } else {
                            self.comm.gather(&send, None, root)?;
                        }
                    }};
                }
                match sdtype {
                    MpiDtype::Int => gather_as!(i32, I32),
                    MpiDtype::Long => gather_as!(i64, I64),
                    MpiDtype::Float => gather_as!(f32, F32),
                    MpiDtype::Double => gather_as!(f64, F64),
                    MpiDtype::Byte => gather_as!(u8, U8),
                }
                Ok(ok)
            }
            "MPI_Scatter" => {
                let sptr_expr = arg!(0).clone();
                let scount = self.eval(arg!(1))?.as_i64(line)? as usize;
                let sdtype = self.dtype_of(arg!(2), line)?;
                let rptr = self.eval(arg!(3))?.as_ptr(line)?;
                let rcount = self.eval(arg!(4))?.as_i64(line)? as usize;
                let root = self.eval(arg!(6))?.as_i64(line)? as usize;
                let total = scount * self.comm.size();
                macro_rules! scatter_as {
                    ($t:ty, $variant:ident) => {{
                        let mut mine = vec![<$t>::default(); rcount];
                        if self.comm.rank() == root {
                            let sptr = self.eval(&sptr_expr)?.as_ptr(line)?;
                            let send = match self.read_buf(sptr, total, sdtype, line)? {
                                TypedVec::$variant(v) => v,
                                _ => unreachable!(),
                            };
                            self.comm.scatter(Some(&send), &mut mine, root)?;
                        } else {
                            self.comm.scatter(None, &mut mine, root)?;
                        }
                        self.write_buf(rptr, &TypedVec::$variant(mine), line)?;
                    }};
                }
                match sdtype {
                    MpiDtype::Int => scatter_as!(i32, I32),
                    MpiDtype::Long => scatter_as!(i64, I64),
                    MpiDtype::Float => scatter_as!(f32, F32),
                    MpiDtype::Double => scatter_as!(f64, F64),
                    MpiDtype::Byte => scatter_as!(u8, U8),
                }
                Ok(ok)
            }
            "MPI_Get_processor_name" | "MPI_Initialized" | "MPI_Finalized" => Ok(ok),
            other => Err(InterpError::Unsupported {
                detail: format!("MPI function {other}"),
                line,
            }),
        }
    }
}

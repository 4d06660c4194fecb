//! Value and memory model.
//!
//! All storage is dynamically-typed [`Cell`]s; every variable, array and
//! `malloc` block occupies a contiguous cell range. Pointers are cell
//! addresses, so `&x`, pointer arithmetic, array decay and `MPI_Status`
//! field access all reduce to integer offsets. Each simulated rank owns a
//! private [`Memory`] — the distributed-memory model is real.
//!
//! Variables are not looked up by name at run time: the compiler
//! ([`crate::compile()`]) gives every declaration a [`Slot`], and executing
//! the declaration writes a [`Binding`] into it.

use crate::error::{Fault, InterpError};

/// One memory cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    Int(i64),
    Double(f64),
    /// Allocated but never written.
    Unset,
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Int(i64),
    Double(f64),
    /// Pointer = absolute cell index.
    Ptr(usize),
}

impl Value {
    /// Truthiness (C semantics).
    pub fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Double(v) => v != 0.0,
            Value::Ptr(p) => p != 0,
        }
    }

    /// Numeric coercion to f64.
    #[inline]
    pub fn as_f64(self, line: u32) -> Result<f64, Fault> {
        match self {
            Value::Int(v) => Ok(v as f64),
            Value::Double(v) => Ok(v),
            Value::Ptr(_) => Err(type_error("pointer used as number".into(), line)),
        }
    }

    /// Numeric coercion to i64 (doubles truncate, like a C cast).
    #[inline]
    pub fn as_i64(self, line: u32) -> Result<i64, Fault> {
        match self {
            Value::Int(v) => Ok(v),
            Value::Double(v) => Ok(v as i64),
            Value::Ptr(_) => Err(type_error("pointer used as integer".into(), line)),
        }
    }

    /// Pointer extraction. Integers interconvert with pointers (cells store
    /// pointers as their index), matching C's lax pointer/integer boundary.
    pub fn as_ptr(self, line: u32) -> Result<usize, Fault> {
        match self {
            Value::Ptr(p) => Ok(p),
            Value::Int(v) if v >= 0 => Ok(v as usize),
            other => Err(type_error(format!("expected pointer, got {other:?}"), line)),
        }
    }

    /// Store form: what a cell holds after assigning this value.
    pub fn to_cell(self) -> Cell {
        match self {
            Value::Int(v) => Cell::Int(v),
            Value::Double(v) => Cell::Double(v),
            // Pointers are stored as integers (cell index).
            Value::Ptr(p) => Cell::Int(p as i64),
        }
    }
}

/// Kept out of line: the coercions above sit on every evaluation path, and
/// almost never fail.
#[cold]
fn type_error(detail: String, line: u32) -> Fault {
    Box::new(InterpError::TypeError { detail, line })
}

impl Cell {
    /// Load form; `Unset` reads as integer 0 (deterministic stand-in for C's
    /// uninitialized garbage, keeps generated programs runnable).
    pub fn to_value(self) -> Value {
        match self {
            Cell::Int(v) => Value::Int(v),
            Cell::Double(v) => Value::Double(v),
            Cell::Unset => Value::Int(0),
        }
    }
}

/// Static type of a declared variable (drives MPI datatype mapping and
/// float-vs-int arithmetic on stores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CType {
    Int,
    Long,
    Double,
    Float,
    Char,
    /// `MPI_Status` (3 int cells), `MPI_Request` (1 cell), …
    Struct,
    Void,
}

impl CType {
    pub fn from_words(words: &[String]) -> CType {
        let joined = words.join(" ");
        if joined.contains("double") {
            CType::Double
        } else if joined.contains("float") {
            CType::Float
        } else if joined.contains("long") {
            CType::Long
        } else if joined.contains("char") {
            CType::Char
        } else if joined.contains("void") {
            CType::Void
        } else if joined.contains("MPI_Status") || joined.contains("MPI_Request") {
            CType::Struct
        } else {
            // int, short, unsigned, size_t, typedefs — integer-like.
            CType::Int
        }
    }

    /// `sizeof` in bytes (C ABI-ish; used by `sizeof` and malloc sizing).
    pub fn size_bytes(self) -> usize {
        match self {
            CType::Char => 1,
            CType::Int | CType::Float => 4,
            CType::Long | CType::Double => 8,
            CType::Struct => 12,
            CType::Void => 1,
        }
    }

    /// Is this a floating type (stores coerce to `Cell::Double`)?
    pub fn is_float(self) -> bool {
        matches!(self, CType::Double | CType::Float)
    }

    /// Cells occupied by one element of this type.
    pub fn cells(self) -> usize {
        match self {
            CType::Struct => 3, // MPI_Status{source, tag, count}
            _ => 1,
        }
    }
}

/// Where a declared variable lives: what one executed declaration (or one
/// bound parameter) writes into its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// Base cell address; 0 (NULL) marks a slot no declaration has bound.
    pub addr: usize,
    pub ctype: CType,
    /// Array dims; empty = scalar. `int a[3][4]` → `[3, 4]`.
    pub dims: Dims,
    /// Declared with `*` (pointer variable)?
    pub is_pointer: bool,
}

impl Binding {
    /// The content of a slot before its declaration has executed.
    pub const UNBOUND: Binding = Binding {
        addr: 0,
        ctype: CType::Int,
        dims: Dims::SCALAR,
        is_pointer: false,
    };
}

/// Array dimensions, as a range of [`Memory`]'s dims arena: dims are
/// run-time values (`double a[n]`), so they cannot live in the compiled
/// program, and a sub-array place (`m[i]` of `m[3][4]`) is the same range
/// minus its head — no dims are ever copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    start: u32,
    len: u32,
}

impl Dims {
    pub const SCALAR: Dims = Dims { start: 0, len: 0 };

    pub fn is_scalar(self) -> bool {
        self.len == 0
    }

    /// The dims of one element of the outermost dimension.
    pub fn tail(self) -> Dims {
        Dims {
            start: self.start + 1,
            len: self.len.saturating_sub(1),
        }
    }
}

/// Stack height at block entry; releasing it frees what the block declared.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    cells: usize,
    dims: usize,
}

/// A caller's state across a call: its stack height and binding frame.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    mark: Mark,
    bindings: usize,
    fp: usize,
}

/// First heap address. `malloc` blocks outlive the block that allocated
/// them, so they live in their own region, which releasing a stack mark
/// never cuts. Far above any stack a `cell_limit` admits, and small enough
/// to round-trip through the `i64` a cell stores a pointer as.
pub const HEAP_BASE: usize = 1 << 40;

/// One rank's memory: a stack of cells that grows with declarations and
/// shrinks when blocks and calls exit, a heap for `malloc`, and the slot
/// table that says where each declared variable currently lives.
pub struct Memory {
    /// Addresses `0..HEAP_BASE`. Cell 0 is reserved so that address 0 == NULL.
    stack: Vec<Cell>,
    /// Addresses `HEAP_BASE..`; `free` is a no-op, so it only grows.
    heap: Vec<Cell>,
    /// Global slots first, then one run of slots per active call.
    bindings: Vec<Binding>,
    /// Index in `bindings` of the running function's slot 0.
    fp: usize,
    /// Arena behind every [`Dims`]; released with the stack.
    dims: Vec<usize>,
}

impl Memory {
    pub fn new(globals: usize) -> Memory {
        Memory {
            stack: vec![Cell::Unset],
            heap: Vec::new(),
            bindings: vec![Binding::UNBOUND; globals],
            fp: globals,
            dims: Vec::new(),
        }
    }

    /// Allocate `n` (at least one) stack cells, returning the base address.
    pub fn alloc(&mut self, n: usize) -> usize {
        let base = self.stack.len();
        self.stack.resize(base + n.max(1), Cell::Unset);
        base
    }

    /// Allocate `n` (at least one) heap cells, returning the base address.
    pub fn alloc_heap(&mut self, n: usize) -> usize {
        let base = self.heap.len();
        self.heap.resize(base + n.max(1), Cell::Unset);
        HEAP_BASE + base
    }

    fn cell(&self, addr: usize) -> Option<&Cell> {
        match addr.checked_sub(HEAP_BASE) {
            Some(i) => self.heap.get(i),
            None => self.stack.get(addr),
        }
    }

    #[inline]
    pub fn load(&self, addr: usize, line: u32) -> Result<Value, Fault> {
        match self.cell(addr) {
            Some(c) => Ok(c.to_value()),
            None => Err(self.unmapped("load", addr, line)),
        }
    }

    #[inline]
    pub fn store(&mut self, addr: usize, v: Value, line: u32) -> Result<(), Fault> {
        let cell = match addr.checked_sub(HEAP_BASE) {
            Some(i) => self.heap.get_mut(i),
            // Cell 0 exists, but only so that nothing else gets its address.
            None if addr == 0 => None,
            None => self.stack.get_mut(addr),
        };
        match cell {
            Some(c) => {
                *c = v.to_cell();
                Ok(())
            }
            None => Err(self.unmapped("store", addr, line)),
        }
    }

    #[cold]
    fn unmapped(&self, access: &str, addr: usize, line: u32) -> Fault {
        let detail = match (access, addr) {
            ("store", 0) => "write through NULL".to_string(),
            _ => format!("{access} at {addr} (memory size {})", self.live()),
        };
        Box::new(InterpError::OutOfBounds { detail, line })
    }

    /// Store with the declared type's coercion (double slots keep doubles).
    pub fn store_typed(
        &mut self,
        addr: usize,
        v: Value,
        ctype: CType,
        line: u32,
    ) -> Result<(), Fault> {
        let coerced = match (ctype.is_float(), v) {
            (true, Value::Int(i)) => Value::Double(i as f64),
            (false, Value::Double(d)) if ctype != CType::Struct => Value::Int(d as i64),
            _ => v,
        };
        self.store(addr, coerced, line)
    }

    /// Live cells, stack and heap: what `Limits::cell_limit` bounds.
    pub fn live(&self) -> usize {
        self.stack.len() + self.heap.len()
    }

    // -- blocks and calls -----------------------------------------------------

    /// Enter a block.
    pub fn mark(&self) -> Mark {
        Mark {
            cells: self.stack.len(),
            dims: self.dims.len(),
        }
    }

    /// Leave a block: everything declared since `mark` is released.
    pub fn release(&mut self, mark: Mark) {
        self.stack.truncate(mark.cells);
        self.dims.truncate(mark.dims);
    }

    /// Enter a function with `slots` local slots, all unbound: the caller's
    /// locals become unreachable, globals stay.
    pub fn push_frame(&mut self, slots: usize) -> Frame {
        let frame = Frame {
            mark: self.mark(),
            bindings: self.bindings.len(),
            fp: self.fp,
        };
        self.fp = frame.bindings;
        self.bindings
            .resize(frame.bindings + slots, Binding::UNBOUND);
        frame
    }

    /// Return to the caller: the callee's slots and stack are released.
    pub fn pop_frame(&mut self, frame: Frame) {
        self.bindings.truncate(frame.bindings);
        self.fp = frame.fp;
        self.release(frame.mark);
    }

    /// Where a slot sits in `bindings` right now.
    fn index(&self, slot: Slot) -> usize {
        match slot {
            Slot::Global(i) => i as usize,
            Slot::Local(i) => self.fp + i as usize,
        }
    }

    /// The binding a slot currently holds ([`Binding::UNBOUND`] before its
    /// declaration has executed, or for a slot the program does not have).
    pub fn binding(&self, slot: Slot) -> Binding {
        let index = self.index(slot);
        self.bindings
            .get(index)
            .copied()
            .unwrap_or(Binding::UNBOUND)
    }

    /// Execute a declaration: point `slot` at `binding`.
    pub fn bind(&mut self, slot: Slot, binding: Binding) {
        let index = self.index(slot);
        if let Some(b) = self.bindings.get_mut(index) {
            *b = binding;
        }
    }

    /// Record the next dimension of the array being declared.
    pub fn push_dim(&mut self, n: usize) {
        self.dims.push(n);
    }

    /// The dims pushed since `mark`.
    pub fn dims_since(&self, mark: Mark) -> Dims {
        Dims {
            start: mark.dims as u32,
            len: (self.dims.len() - mark.dims) as u32,
        }
    }

    /// The last `n` dims pushed: those of the array being declared, whose
    /// dimension expressions have all run (a call among them releases what
    /// it pushed).
    pub fn last_dims(&self, n: usize) -> Dims {
        Dims {
            start: (self.dims.len() - n) as u32,
            len: n as u32,
        }
    }

    pub fn dims(&self, d: Dims) -> &[usize] {
        let start = d.start as usize;
        self.dims.get(start..start + d.len as usize).unwrap_or(&[])
    }
}

/// A variable's compile-time address: a slot of the global table, or of the
/// running function's frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Global(u32),
    Local(u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_coercions() {
        assert_eq!(Value::Int(3).as_f64(1).unwrap(), 3.0);
        assert_eq!(Value::Double(2.7).as_i64(1).unwrap(), 2);
        assert!(Value::Ptr(5).as_f64(1).is_err());
        assert_eq!(Value::Int(0).as_ptr(1).unwrap(), 0, "NULL interop");
        assert_eq!(Value::Int(3).as_ptr(1).unwrap(), 3, "int/pointer interop");
        assert!(Value::Int(-1).as_ptr(1).is_err());
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Double(0.1).truthy());
        assert!(!Value::Double(0.0).truthy());
        assert!(!Value::Ptr(0).truthy());
    }

    #[test]
    fn ctype_classification() {
        let w = |s: &str| -> Vec<String> { s.split(' ').map(str::to_string).collect() };
        assert_eq!(CType::from_words(&w("int")), CType::Int);
        assert_eq!(CType::from_words(&w("unsigned long")), CType::Long);
        assert_eq!(CType::from_words(&w("double")), CType::Double);
        assert_eq!(CType::from_words(&w("MPI_Status")), CType::Struct);
        assert_eq!(CType::from_words(&w("size_t")), CType::Int);
        assert_eq!(CType::Double.size_bytes(), 8);
        assert_eq!(CType::Int.size_bytes(), 4);
        assert!(CType::Float.is_float());
        assert_eq!(CType::Struct.cells(), 3);
    }

    #[test]
    fn alloc_load_store() {
        let mut m = Memory::new(0);
        let a = m.alloc(4);
        assert!(a > 0, "address 0 is NULL");
        m.store(a, Value::Double(1.5), 1).unwrap();
        assert_eq!(m.load(a, 1).unwrap(), Value::Double(1.5));
        assert_eq!(m.load(a + 1, 1).unwrap(), Value::Int(0), "unset reads 0");
        assert!(m.load(a + 100, 1).is_err());
        assert!(m.store(0, Value::Int(1), 1).is_err(), "NULL write");
    }

    #[test]
    fn typed_store_coerces() {
        let mut m = Memory::new(0);
        let a = m.alloc(2);
        m.store_typed(a, Value::Int(3), CType::Double, 1).unwrap();
        assert_eq!(m.load(a, 1).unwrap(), Value::Double(3.0));
        m.store_typed(a + 1, Value::Double(2.9), CType::Int, 1)
            .unwrap();
        assert_eq!(m.load(a + 1, 1).unwrap(), Value::Int(2), "C truncation");
    }

    fn scalar(addr: usize, ctype: CType) -> Binding {
        Binding {
            addr,
            ctype,
            ..Binding::UNBOUND
        }
    }

    #[test]
    fn releasing_a_mark_frees_the_stack_but_not_the_heap() {
        let mut m = Memory::new(0);
        let outer = m.alloc(1);
        let mark = m.mark();
        let inner = m.alloc(1024);
        let block = m.alloc_heap(8);
        m.store(inner, Value::Int(7), 1).unwrap();
        m.store(block + 7, Value::Int(9), 1).unwrap();
        assert_eq!(m.live(), 1 + 1 + 1024 + 8);
        m.release(mark);
        assert_eq!(m.live(), 1 + 1 + 8, "the block's cells are gone");
        assert!(m.load(inner, 1).is_err(), "a released local is unmapped");
        assert_eq!(m.load(block + 7, 1).unwrap(), Value::Int(9));
        assert!(m.load(block + 8, 1).is_err(), "heap blocks are bounded too");
        assert_eq!(m.alloc(1), inner, "and its addresses are reused");
        assert_eq!(m.load(inner, 1).unwrap(), Value::Int(0), "zeroed");
        assert_eq!(m.load(outer, 1).unwrap(), Value::Int(0));
    }

    #[test]
    fn frames_hide_caller_slots_but_not_globals() {
        let mut m = Memory::new(1);
        let g = m.alloc(1);
        m.bind(Slot::Global(0), scalar(g, CType::Int));
        let main = m.push_frame(1);
        let l = m.alloc(1);
        m.bind(Slot::Local(0), scalar(l, CType::Double));
        let callee = m.push_frame(2);
        assert_eq!(m.binding(Slot::Local(0)), Binding::UNBOUND, "a fresh slot");
        assert_eq!(m.binding(Slot::Global(0)).addr, g, "globals visible");
        let p = m.alloc(1);
        m.bind(Slot::Local(1), scalar(p, CType::Int));
        m.pop_frame(callee);
        assert_eq!(
            m.binding(Slot::Local(0)).addr,
            l,
            "the caller's slot is back"
        );
        assert_eq!(m.binding(Slot::Local(1)), Binding::UNBOUND, "no such slot");
        assert_eq!(m.alloc(1), p, "the callee's cells were released");
        m.pop_frame(main);
        assert_eq!(m.live(), 2);
    }

    #[test]
    fn dims_are_ranges_of_the_arena() {
        let mut m = Memory::new(0);
        let mark = m.mark();
        m.push_dim(3);
        m.push_dim(4);
        let dims = m.dims_since(mark);
        assert_eq!(m.dims(dims), [3, 4]);
        assert_eq!(m.dims(dims.tail()), [4]);
        assert!(dims.tail().tail().is_scalar());
        assert!(Dims::SCALAR.tail().is_scalar());
        m.release(mark);
        assert_eq!(m.dims(dims), [] as [usize; 0], "released with the block");
    }
}

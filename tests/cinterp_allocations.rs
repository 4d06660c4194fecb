//! The interpreter's hot path does not allocate.
//!
//! A counting global allocator wraps the system one; three programs of
//! 10⁵–10⁶ steps — a bare loop run into its step budget, on 1 rank and on
//! 4, a loop around a user-function call, an array sweep — are compiled,
//! and then *run* under the counter. What a run allocates must not depend
//! on how many steps it executes: a world is its ranks' interpreters and
//! mailboxes on the calling thread, and each rank's memory, stacks and
//! output are a few dozen allocations, against roughly two per step when
//! every identifier built a `String` and every variable read cloned its
//! metadata.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside this one would be counted too.

use mpirical_interp::{compile, run_compiled, InterpError, RunConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods of this impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) made by one run of `src`, after compile.
fn allocations_of(src: &str, cfg: &RunConfig) -> (usize, Result<String, InterpError>) {
    let code = compile(&mpirical_cparse::parse_strict(src).unwrap());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = run_compiled(&code, cfg);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (spent, result.map(|out| out.combined()))
}

#[test]
fn a_run_allocates_a_constant_not_per_step() {
    let mut budget = RunConfig::new(1);
    budget.limits.step_limit = 1_000_000;
    let (spent, result) = allocations_of(
        "int main() { int x = 0; while (1) { x = x + 1; } return 0; }",
        &budget,
    );
    assert_eq!(result, Err(InterpError::StepLimit { limit: 1_000_000 }));
    assert!(spent < 1_000, "1 000 000-step loop: {spent} allocations");

    // Rank 0 runs out first and halts the world: four interpreters, no
    // thread.
    let mut budget = RunConfig::new(4);
    budget.limits.step_limit = 1_000_000;
    let (spent, result) = allocations_of(
        "int main() { int x = 0; while (1) { x = x + 1; } return 0; }",
        &budget,
    );
    assert_eq!(result, Err(InterpError::StepLimit { limit: 1_000_000 }));
    assert!(
        spent < 1_000,
        "1 000 000-step loop on 4 ranks: {spent} allocations"
    );

    let (spent, result) = allocations_of(
        r#"int twice(int v) { int w = v + v; return w; }
        int main() {
            int k;
            long sum = 0;
            for (k = 0; k < 10000; k++) { sum += twice(k); }
            printf("%ld\n", sum);
            return 0;
        }"#,
        &RunConfig::new(1),
    );
    assert_eq!(result.as_deref(), Ok("99990000\n"));
    assert!(spent < 1_000, "10 000 calls: {spent} allocations");

    let (spent, result) = allocations_of(
        r#"int main() {
            double a[1000];
            int r, i;
            double total = 0.0;
            for (i = 0; i < 1000; i++) { a[i] = 0.0; }
            for (r = 0; r < 100; r++) {
                for (i = 0; i < 1000; i++) { a[i] = a[i] + i * 0.5; }
            }
            for (i = 0; i < 1000; i++) { total += a[i]; }
            printf("%.1f\n", total);
            return 0;
        }"#,
        &RunConfig::new(1),
    );
    assert_eq!(result.as_deref(), Ok("24975000.0\n"));
    assert!(spent < 1_000, "100 x 1000 array sweep: {spent} allocations");
}

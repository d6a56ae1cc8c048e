//! A warm `Vm` makes no heap allocation per call: frames live on the
//! VM's register stack, arguments are copied register to register, and
//! the scratch buffer keeps its capacity. Pinned with a counting global
//! allocator over a device loop that calls its kernel once per element.

use interp::{compile_module, Value, Vm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's allocations and reallocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `@device` calls the single-block `@kernel` once per element; the
/// kernel also calls an intrinsic, so the scratch buffer is exercised.
const CHAIN: &str = r#"
define void @kernel(double* %p, i64 %i) {
entry:
  %a = getelementptr double, double* %p, i64 %i
  %x = load double, double* %a
  %y = call double @fabs(double %x)
  %z = fadd double %y, 1.0
  store double %z, double* %a
  ret void
}

define double @device(double* %p, i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  call void @kernel(double* %p, i64 %i)
  %i.next = add i64 %i, 1
  br label %header
exit:
  %last = getelementptr double, double* %p, i64 9999
  %v = load double, double* %last
  ret double %v
}
"#;

#[test]
fn a_warm_vm_runs_ten_thousand_calls_without_allocating() {
    let m = ssair::parser::parse_module(CHAIN).expect("chain IR parses");
    let code = compile_module(&m);
    let mut vm = Vm::new(&code);
    let p = vm.mem.alloc_f64_slice(&vec![-1.0; 10_000]);
    let args = [Value::P(p), Value::I(10_000)];
    assert_eq!(vm.run("device", &args).unwrap(), Value::F(2.0));
    let warm_steps = vm.steps();

    let before = allocations();
    let second = vm.run("device", &args);
    let made = allocations() - before;

    assert_eq!(second.unwrap(), Value::F(3.0));
    assert_eq!(vm.steps(), 2 * warm_steps, "the same work ran again");
    assert_eq!(made, 0, "a warm run of 10,000 calls allocated {made} times");
}

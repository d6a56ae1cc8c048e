//! Quickstart: the paper's Figure 1 workflow on one function.
//!
//! Compile C to SSA IR, detect idioms with the IDL library, replace the
//! match with a heterogeneous API call, and run both versions.
//!
//!     cargo run --example quickstart

use idiomatch::core as pipeline;
use idiomatch::idioms::IdiomKind;
use idiomatch::interp::{compile_module, Value, Vm};
use idiomatch::xform::Outcome;

fn main() {
    let source = "double dot(double* x, double* y, int n) {
        double acc = 0.0;
        for (int i = 0; i < n; i++) acc += x[i] * y[i];
        return acc;
    }";
    // 1. clang's role: C -> optimized SSA IR.
    let compiled = pipeline::compile(source, "quickstart").expect("compiles");
    println!(
        "== optimized IR ==\n{}",
        compiled.module.function("dot").unwrap()
    );

    // 2. Idiom detection (IDL + constraint solver).
    let detected = compiled.detect();
    let f = detected.module.function("dot").unwrap();
    for inst in &detected.instances {
        println!(
            "detected {:?} anchored at {}",
            inst.kind,
            f.display_name(inst.anchor)
        );
        for (name, v) in inst.bindings.iter().take(8) {
            println!("   {name} = {}", f.display_name(*v));
        }
        println!("   ... ({} bindings total)", inst.bindings.len());
    }

    // 3. Replacement: outline the reduction operator, generate device
    //    code (the Lift path), link it in, and validate the result
    //    against the original under several seeded inputs.
    let validated = detected.transform().validate(
        "dot",
        |mem, seed| {
            let x = mem.alloc_f64_slice(&[1.0 + seed as f64, 2.0, 3.0, 4.0]);
            let y = mem.alloc_f64_slice(&[0.5, 0.5, 0.5, 0.5]);
            vec![Value::P(x), Value::P(y), Value::I(4)]
        },
        &idiomatch::benchsuite::VALIDATION_SEEDS,
    );
    validated
        .validation
        .as_ref()
        .expect("replacement validates");
    let rep = validated
        .xform
        .outcomes
        .iter()
        .find_map(|o| match &o.outcome {
            Outcome::Replaced(rep) if o.instance.kind == IdiomKind::Reduction => Some(rep),
            _ => None,
        })
        .expect("reduction replaced");
    let transformed = &validated.xform.module;
    println!("\n== replaced with a call to @{} ==", rep.callee);
    println!("{}", transformed.function("dot").unwrap());

    // 4. Run the transformed program: lower it to bytecode once, run it
    //    on the VM.
    let code = compile_module(transformed);
    let mut vm = Vm::new(&code);
    idiomatch::hetero::hosts::register_all(&mut vm);
    let x = vm.mem.alloc_f64_slice(&[1.0, 2.0, 3.0, 4.0]);
    let y = vm.mem.alloc_f64_slice(&[2.0, 2.0, 2.0, 2.0]);
    let r = vm
        .run("dot", &[Value::P(x), Value::P(y), Value::I(4)])
        .unwrap();
    println!("dot([1,2,3,4],[2,2,2,2]) = {:?}  (expected 20)", r);
}

//! The paper's running example (§2.3, Figures 4-6): the NAS CG sparse
//! matrix-vector kernel is detected as SPMV and replaced with a
//! cuSPARSE-style csrmv call.
//!
//!     cargo run --example sparse_offload

use idiomatch::core as pipeline;
use idiomatch::idioms::IdiomKind;
use idiomatch::interp::{compile_module, Value, Vm};
use idiomatch::xform::Outcome;

const CG_KERNEL: &str = "
void spmv(double* a, int* rowstr, int* colidx, double* z, double* r, int m) {
    for (int j = 0; j < m; j++) {
        double d = 0.0;
        for (int k = rowstr[j]; k < rowstr[j+1]; k++)
            d = d + a[k] * z[colidx[k]];
        r[j] = d;
    }
}";

fn setup(mem: &mut idiomatch::interp::Memory, seed: u64) -> Vec<Value> {
    let rowstr = mem.alloc_i32_slice(&[0, 2, 4, 5, 7]);
    let colidx = mem.alloc_i32_slice(&[0, 1, 1, 2, 3, 0, 3]);
    let vals = mem.alloc_f64_slice(&[1.0 + seed as f64, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    let z = mem.alloc_f64_slice(&[1.5, -2.0, 0.5, 3.0]);
    let r = mem.alloc_f64_slice(&[0.0; 4]);
    vec![
        Value::P(vals),
        Value::P(rowstr),
        Value::P(colidx),
        Value::P(z),
        Value::P(r),
        Value::I(4),
    ]
}

fn main() {
    let detected = pipeline::compile(CG_KERNEL, "cg")
        .expect("compiles")
        .detect();
    let f = detected.module.function("spmv").unwrap();
    let spmv = detected
        .instances
        .iter()
        .find(|i| i.kind == IdiomKind::Spmv)
        .expect("SPMV detected");
    println!("== Figure 5: constraint solution ==");
    for var in [
        "iterator",
        "inner.iter_begin",
        "inner.iter_end",
        "inner.iterator",
        "idx_read.value",
        "indir_read.value",
        "output.address",
        "idx_read.base_pointer",
        "seq_read.base_pointer",
        "indir_read.base_pointer",
    ] {
        println!("  {var:>24} = {}", f.display_name(spmv.value(var).unwrap()));
    }

    let validated =
        detected
            .transform()
            .validate("spmv", setup, &idiomatch::benchsuite::VALIDATION_SEEDS);
    validated
        .validation
        .as_ref()
        .expect("replacement validates");
    let rep = validated
        .xform
        .outcomes
        .iter()
        .find_map(|o| match &o.outcome {
            Outcome::Replaced(rep) if o.instance.kind == IdiomKind::Spmv => Some(rep),
            _ => None,
        })
        .expect("SPMV replaced");
    let transformed = &validated.xform.module;
    println!("\n== Figure 6: generated call ==  @{}", rep.callee);
    println!("{}", transformed.function("spmv").unwrap());

    let code = compile_module(transformed);
    let mut vm = Vm::new(&code);
    idiomatch::hetero::hosts::register_all(&mut vm);
    let args = setup(&mut vm.mem, idiomatch::benchsuite::CANONICAL_SEED);
    let rp = args[4].as_p();
    vm.run("spmv", &args).unwrap();
    println!("r = {:?}", vm.mem.read_f64_slice(rp, 4));
}

//! Kernel slicing: the pure backward slice of a matched kernel output,
//! cloned wherever the backend needs it.
//!
//! The paper cuts the kernel function / reduction operator out of the loop
//! body and hands it to the DSL backend (§6.2), whose device compiler
//! inlines it into the loop it generates. Here [`KernelSlice::new`]
//! computes the slice and its inputs, and [`KernelSlice::emit`] clones it
//! into a block of another function: `xform::replace` emits it straight
//! into the body of the generated device loop, so that loop makes no call
//! per element. [`outline_kernel`] emits the same slice as a standalone
//! function, the form the IR-to-C backend prints for Lift.

use ssair::analysis::kernel_slice;
use ssair::{BlockId, Function, Instr, Type, ValueId, ValueKind};
use std::collections::HashMap;

/// The pure slice computing one kernel output, ready to be emitted.
#[derive(Debug)]
pub struct KernelSlice<'f> {
    src: &'f Function,
    /// The slice's instructions in program order (value id order matches
    /// creation order inside a function).
    instrs: Vec<ValueId>,
    output: ValueId,
    /// The declared inputs, then every free argument the slice reads
    /// (loop-invariant scalars like `alpha`), in first-use order.
    pub inputs: Vec<ValueId>,
}

impl<'f> KernelSlice<'f> {
    /// The slice computing `output` from `inputs` in `src`. Returns `None`
    /// when the slice is impure (which detection should already have
    /// excluded).
    #[must_use]
    pub fn new(src: &'f Function, output: ValueId, inputs: &[ValueId]) -> Option<KernelSlice<'f>> {
        let mut instrs = kernel_slice(src, output, inputs)?;
        instrs.sort_unstable();
        let mut all = inputs.to_vec();
        for &v in &instrs {
            for &op in &src.instr(v).expect("slice instruction").operands {
                let free = src.is_argument(op) || instrs.binary_search(&op).is_err();
                if free && !src.is_constant(op) && !all.contains(&op) {
                    all.push(op);
                }
            }
        }
        Some(KernelSlice {
            src,
            instrs,
            output,
            inputs: all,
        })
    }

    /// Clones the slice onto the end of `block` in `dst`, reading
    /// `args[k]` for `self.inputs[k]` and interning its constants in
    /// `dst`; returns the image of the output, named `%name` unless it is
    /// one of `args` or a constant (the kernel returns an input as is).
    ///
    /// # Panics
    /// Panics unless `args` has one value per input.
    pub fn emit(
        &self,
        dst: &mut Function,
        block: BlockId,
        args: &[ValueId],
        name: &str,
    ) -> ValueId {
        assert_eq!(args.len(), self.inputs.len(), "one argument per input");
        let src = self.src;
        let mut map: HashMap<ValueId, ValueId> = self
            .inputs
            .iter()
            .copied()
            .zip(args.iter().copied())
            .collect();
        let remap = |map: &HashMap<ValueId, ValueId>, dst: &mut Function, v: ValueId| {
            if let Some(&m) = map.get(&v) {
                return m;
            }
            let ty = src.value(v).ty;
            match src.value(v).kind {
                ValueKind::ConstInt(c) => dst.const_int(ty, c),
                ValueKind::ConstFloat(c) => dst.const_float(ty, c),
                ValueKind::Argument { .. } => unreachable!("free arguments are inputs"),
                ValueKind::Instr(_) => unreachable!("slice is topologically ordered"),
            }
        };
        for &v in &self.instrs {
            let instr = src.instr(v).expect("slice instruction");
            let operands = (instr.operands.iter())
                .map(|&op| remap(&map, dst, op))
                .collect();
            let cloned = Instr {
                callee: instr.callee.clone(),
                ..Instr::simple(instr.opcode, operands)
            };
            let image = dst.append(block, src.value(v).ty, cloned);
            map.insert(v, image);
        }
        let result = remap(&map, dst, self.output);
        if dst.is_instruction(result) && !args.contains(&result) {
            dst.set_name(result, name);
        }
        result
    }
}

/// An outlined kernel: the new function plus its input signature.
#[derive(Debug, Clone)]
pub struct OutlinedKernel {
    /// The generated function (single basic block, pure).
    pub function: Function,
    /// The original values that became parameters, in parameter order.
    pub inputs: Vec<ValueId>,
}

/// Outlines the pure slice computing `output` from `inputs` in `src` as a
/// new function named `name`, whose parameters `%in{k}` are the slice's
/// [`KernelSlice::inputs`]. Returns `None` when the slice is impure.
#[must_use]
pub fn outline_kernel(
    src: &Function,
    output: ValueId,
    inputs: &[ValueId],
    name: &str,
) -> Option<OutlinedKernel> {
    let slice = KernelSlice::new(src, output, inputs)?;
    let params: Vec<(String, Type)> = (slice.inputs.iter().enumerate())
        .map(|(k, &v)| (format!("in{k}"), src.value(v).ty))
        .collect();
    let mut function = Function::new(name, &params, src.value(output).ty);
    let args = function.params.clone();
    let result = slice.emit(&mut function, BlockId(0), &args, "out");
    function.append_ret(BlockId(0), Some(result));
    Some(OutlinedKernel {
        function,
        inputs: slice.inputs,
    })
}

/// Trivial kernels (`output` *is* one of the inputs) still outline: the
/// generated function returns its parameter.
#[cfg(test)]
mod tests {
    use super::*;
    use ssair::parser::parse_function_text;

    fn get(f: &Function, name: &str) -> ValueId {
        f.named(name)
            .unwrap_or_else(|| panic!("no value named {name}"))
    }

    #[test]
    fn outlines_pure_arithmetic() {
        let src = parse_function_text(
            r#"
define void @host(double* %p, double %u, double %v) {
entry:
  %m = fmul double %u, %v
  %s = fadd double %m, 1.5
  store double %s, double* %p
  ret void
}
"#,
        )
        .unwrap();
        let u = src.params[1];
        let v = src.params[2];
        let s = get(&src, "s");
        let k = outline_kernel(&src, s, &[u, v], "kern").expect("outlines");
        assert_eq!(k.function.params.len(), 2);
        ssair::verify::verify_function(&k.function).expect("outlined kernel verifies");
        let text = format!("{}", k.function);
        assert!(text.contains("fmul"));
        assert!(text.contains("ret double"));
    }

    #[test]
    fn promotes_free_arguments_to_parameters() {
        let src = parse_function_text(
            r#"
define void @host(double* %p, double %x, double %alpha) {
entry:
  %m = fmul double %x, %alpha
  store double %m, double* %p
  ret void
}
"#,
        )
        .unwrap();
        let x = src.params[1];
        let m = get(&src, "m");
        // alpha is NOT declared; it must be promoted.
        let k = outline_kernel(&src, m, &[x], "kern").expect("outlines");
        assert_eq!(k.function.params.len(), 2, "x plus promoted alpha");
        assert_eq!(k.inputs.len(), 2);
    }

    #[test]
    fn refuses_impure_slices() {
        let src = parse_function_text(
            r#"
define void @host(double* %p, double* %q) {
entry:
  %x = load double, double* %q
  %m = fmul double %x, 2.0
  store double %m, double* %p
  ret void
}
"#,
        )
        .unwrap();
        let m = get(&src, "m");
        assert!(outline_kernel(&src, m, &[], "kern").is_none());
    }

    #[test]
    fn identity_kernel_outlines() {
        let src = parse_function_text(
            r#"
define void @host(double* %p, double %x) {
entry:
  store double %x, double* %p
  ret void
}
"#,
        )
        .unwrap();
        let x = src.params[1];
        let k = outline_kernel(&src, x, &[x], "kern").expect("outlines");
        ssair::verify::verify_function(&k.function).expect("verifies");
    }

    #[test]
    fn whitelisted_math_calls_are_cloned() {
        let src = parse_function_text(
            r#"
define void @host(double* %p, double %x) {
entry:
  %r = call double @sqrt(double %x)
  %s = fadd double %r, 1.0
  store double %s, double* %p
  ret void
}
"#,
        )
        .unwrap();
        let x = src.params[1];
        let s = get(&src, "s");
        let k = outline_kernel(&src, s, &[x], "kern").expect("outlines");
        let text = format!("{}", k.function);
        assert!(text.contains("call double @sqrt"));
    }
}

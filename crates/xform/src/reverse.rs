//! Reversed-iteration rewriting for the parallel-safety oracle.
//!
//! An `IndependentIterations` certificate claims that the iterations of a
//! region's outermost loop can execute in *any* order. The cheapest
//! dynamic witness for that claim is the opposite order: rewrite the loop
//! to run from `end - 1` down to `init` and compare the final machine
//! state bitwise against the forward run. Independent iterations commute
//! even in floating point (there is no cross-iteration accumulation to
//! re-associate), so the reversed program must be *exactly* equivalent —
//! any divergence convicts the certificate, not the tolerance.
//!
//! [`reverse_loop`] handles the counted-loop shape the frontend emits and
//! the affine pass recognises: a header phi with step `+1` guarded by
//! `icmp slt iv, end` in the header. Anything else is refused with a
//! reason (the oracle then simply skips the region — a refusal is a
//! coverage gap, never a wrong answer).

use ssair::analysis::{DomTree, IndVar};
use ssair::{Function, ICmpPred, InsertPoint, Instr, Opcode};

/// Rewrites the counted loop of the induction variable `info` in place so
/// its iterations run in reverse order:
///
/// * preheader gains `last = add end, -1`,
/// * the phi's init operand becomes `last`,
/// * the step becomes `add iv, -1`,
/// * the guard becomes `icmp sge iv, init`.
///
/// An empty forward loop (`init >= end`) stays empty: it starts at
/// `end - 1 < init` and the new guard fails immediately.
///
/// `info` and `dom` are the caller's analyses of `f` as it stands (an
/// [`ssair::analysis::AffineMap`] entry and its dominator tree).
///
/// Returns the reason when the loop does not have the supported shape.
pub fn reverse_loop(f: &mut Function, info: &IndVar, dom: &DomTree) -> Result<(), String> {
    let iv = info.phi;
    if info.step != 1 {
        return Err(format!("unsupported step {}", info.step));
    }
    // The loop must carry no other state: a second header phi (an
    // accumulator) would be order-sensitive.
    let other_phi = f
        .block(info.header)
        .instrs
        .iter()
        .any(|&v| v != iv && f.opcode(v) == Some(Opcode::Phi));
    if other_phi {
        return Err("header carries another phi".into());
    }
    // Exactly two incoming edges: the latch (carrying `next`) and the
    // preheader (carrying `init`).
    let phi = f.instr(iv).expect("ivs are phis");
    if phi.operands.len() != 2 {
        return Err(format!("{} incoming edges", phi.operands.len()));
    }
    let Some(latch_idx) = phi.operands.iter().position(|&o| o == info.next) else {
        return Err("latch edge does not carry the step".into());
    };
    let init_idx = 1 - latch_idx;
    let preheader = phi.incoming[init_idx];
    // Header guard: `condbr (icmp slt iv, end)` as the terminator.
    let Some(&guard_br) = f.block(info.header).instrs.last() else {
        return Err("empty header".into());
    };
    let br = f.instr(guard_br).expect("blocks end in instructions");
    if br.opcode != Opcode::CondBr {
        return Err("header does not end in a conditional branch".into());
    }
    let cond = br.operands[0];
    let Some(cmp) = f.instr(cond) else {
        return Err("guard condition is not an instruction".into());
    };
    if cmp.opcode != Opcode::ICmp(ICmpPred::Slt) || cmp.operands[0] != iv {
        return Err("guard is not `icmp slt iv, end`".into());
    }
    let end = cmp.operands[1];
    // `end - 1` is inserted at the bottom of the preheader, so `end`
    // must already be available there.
    let end_available = f.is_constant(end)
        || f.is_argument(end)
        || f.find_block_of(end)
            .is_some_and(|b| dom.dominates(b, preheader));
    if !end_available {
        return Err("loop bound is not available in the preheader".into());
    }
    let latch = phi.incoming[latch_idx];
    let ty = f.value(iv).ty;

    // All checks passed — mutate. The old step (`iv + 1`) is left in
    // place untouched: bodies often reuse it as data (`rowptr[i+1]`),
    // and the frontend CSEs that use with the increment. The reversed
    // loop gets a *fresh* decrement feeding the phi instead.
    let minus_one = f.const_int(ty, -1);
    let before_term = InsertPoint::BeforeTerminator;
    let last = Instr::simple(Opcode::Add, vec![end, minus_one]);
    let last = f.insert(preheader, before_term, ty, last);
    let dec = Instr::simple(Opcode::Add, vec![iv, minus_one]);
    let dec = f.insert(latch, before_term, ty, dec);
    let init = {
        let phi = f.instr_mut(iv).expect("ivs are phis");
        let init = phi.operands[init_idx];
        phi.operands[init_idx] = last;
        phi.operands[latch_idx] = dec;
        init
    };
    let cmp = f.instr_mut(cond).expect("guards are instructions");
    cmp.opcode = Opcode::ICmp(ICmpPred::Sge);
    cmp.operands = vec![iv, init];
    Ok(())
}

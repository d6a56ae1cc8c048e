//! Per-function fingerprints: one linear walk over the instructions plus
//! the loop forest, summarizing everything the idiom requirement
//! signatures can test. Computing a fingerprint costs microseconds; a
//! solver search costs thousands of steps — the whole point is that
//! [`crate::IdiomRequirements::admitted_by`] can reject a pair from the
//! fingerprint alone.

use idl::ctree::OpcodeClass;
use ssair::analysis::LoopForest;
use ssair::{Function, Opcode, ValueId};
use std::collections::BTreeSet;

/// A conservative one-pass summary of a function's instruction mix and
/// loop structure. Every field over-approximates: whatever an idiom
/// requires must be *present* here, or the idiom cannot match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionFingerprint {
    /// Deepest loop nesting (1 = a flat loop, 0 = loop-free).
    pub max_loop_depth: u32,
    /// Opcode classes present (census at class granularity).
    pub opcodes: BTreeSet<OpcodeClass>,
    /// Number of `load` instructions.
    pub loads: u32,
    /// Number of `store` instructions.
    pub stores: u32,
    /// Number of `phi` instructions.
    pub phis: u32,
    /// Some `gep` index operand is a `load` (or `sext` of a load) — the
    /// indirect-access shape of histogram bins and CSR column reads.
    pub has_indirect_gep_index: bool,
    /// Some `gep` is used both as a store address and as a load address —
    /// the read-modify-write shape of generalized histograms.
    pub has_rmw_gep: bool,
    /// Some `store` writes through a `gep` whose index operand is a `phi`
    /// (or a `sext` of one) — the direct `out[i] = …` shape of 1-D
    /// stencils and SPMV row writes. Row-major 2-D writes index through
    /// an `add`, scatters through a `load`: neither sets this.
    pub has_phi_indexed_store: bool,
    /// Number of `call` instructions.
    pub calls: u32,
    /// `true` if some call targets a function outside the pure math
    /// intrinsics ([`ssair::MATH_INTRINSICS`]).
    pub has_impure_call: bool,
}

impl FunctionFingerprint {
    /// Computes the fingerprint of `f`, reusing an already-computed loop
    /// forest (the detection driver has one from the solver's analyses).
    #[must_use]
    pub fn with_loops(f: &Function, loops: &LoopForest) -> FunctionFingerprint {
        let mut fp = FunctionFingerprint {
            max_loop_depth: 0,
            opcodes: BTreeSet::new(),
            loads: 0,
            stores: 0,
            phis: 0,
            has_indirect_gep_index: false,
            has_rmw_gep: false,
            has_phi_indexed_store: false,
            calls: 0,
            has_impure_call: false,
        };
        for l in &loops.loops {
            let mut depth = 1u32;
            let mut parent = l.parent;
            while let Some(p) = parent {
                depth += 1;
                parent = loops.loops[p].parent;
            }
            fp.max_loop_depth = fp.max_loop_depth.max(depth);
        }
        let mut load_addrs: Vec<ValueId> = Vec::new();
        let mut store_addrs: Vec<ValueId> = Vec::new();
        // Walk placed instructions only: a pass that drops an instruction
        // leaves its arena slot behind, and the solver never binds it
        // either.
        let placed = f
            .block_ids()
            .flat_map(|b| f.block(b).instrs.iter().copied());
        for v in placed {
            let Some(i) = f.instr(v) else { continue };
            if let Some(class) = OpcodeClass::of(i.opcode) {
                fp.opcodes.insert(class);
            }
            match i.opcode {
                Opcode::Load => {
                    fp.loads += 1;
                    load_addrs.push(i.operands[0]);
                }
                Opcode::Store => {
                    fp.stores += 1;
                    let addr = i.operands[1];
                    store_addrs.push(addr);
                    if f.opcode(addr) == Some(Opcode::Gep) {
                        let idx = f.instr(addr).map(|g| g.operands[1]);
                        let root = match idx.and_then(|x| f.opcode(x)) {
                            Some(Opcode::SExt) => {
                                idx.and_then(|x| f.instr(x)).map(|s| s.operands[0])
                            }
                            _ => idx,
                        };
                        if root.and_then(|r| f.opcode(r)) == Some(Opcode::Phi) {
                            fp.has_phi_indexed_store = true;
                        }
                    }
                }
                Opcode::Phi => fp.phis += 1,
                Opcode::Gep => {
                    let idx = i.operands[1];
                    let root = match f.opcode(idx) {
                        Some(Opcode::SExt) => f.instr(idx).map(|s| s.operands[0]),
                        _ => Some(idx),
                    };
                    if root.and_then(|r| f.opcode(r)) == Some(Opcode::Load) {
                        fp.has_indirect_gep_index = true;
                    }
                }
                Opcode::Call => {
                    fp.calls += 1;
                    if !i.is_math_call() {
                        fp.has_impure_call = true;
                    }
                }
                _ => {}
            }
        }
        fp.has_rmw_gep = store_addrs
            .iter()
            .any(|&a| f.opcode(a) == Some(Opcode::Gep) && load_addrs.contains(&a));
        fp
    }

    /// Computes the fingerprint of `f` from scratch (builds the CFG,
    /// dominator tree and loop forest itself).
    #[must_use]
    pub fn of(f: &Function) -> FunctionFingerprint {
        let cfg = ssair::analysis::Cfg::new(f);
        let dom = ssair::analysis::DomTree::dominators(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        FunctionFingerprint::with_loops(f, &loops)
    }
}

//! Per-instruction execution counts.
//!
//! The profile feeds two experiments: runtime coverage (Figure 17 — the
//! fraction of dynamic cost attributable to detected idiom regions) and the
//! sequential baseline of the performance model (Table 3 / Figure 18).
//! Costs are charged per opcode by [`Profile::cost_of`]: floating point and
//! integer ALU operations cost one unit, memory operations four (a
//! cache-friendly average), matching the coarse per-instruction CPI model
//! used for the calibration described in `DESIGN.md`.

use ssair::{Function, Opcode, ValueId};
use std::collections::HashMap;

/// Execution counts per function, indexed by value id.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Profile {
    counts: HashMap<String, Vec<u64>>,
}

impl Profile {
    /// Creates an empty profile.
    #[must_use]
    pub fn new() -> Profile {
        Profile::default()
    }

    pub(crate) fn bump(&mut self, func: &Function, v: ValueId) {
        let c = self
            .counts
            .entry(func.name.clone())
            .or_insert_with(|| vec![0; func.num_values()]);
        if (v.0 as usize) >= c.len() {
            c.resize(v.0 as usize + 1, 0);
        }
        c[v.0 as usize] += 1;
    }

    /// The execution count of instruction `v` in `func`.
    #[must_use]
    pub fn count(&self, func: &str, v: ValueId) -> u64 {
        self.counts
            .get(func)
            .and_then(|c| c.get(v.0 as usize))
            .copied()
            .unwrap_or(0)
    }

    /// The abstract cost of one execution of `opcode`.
    #[must_use]
    pub fn cost_of(opcode: Opcode) -> f64 {
        match opcode {
            Opcode::Load | Opcode::Store => 4.0,
            Opcode::Call => 2.0,
            Opcode::FDiv | Opcode::SDiv | Opcode::SRem => 8.0,
            _ => 1.0,
        }
    }

    /// Total dynamic cost of one function under the per-opcode model.
    #[must_use]
    pub fn total_cost(&self, f: &Function) -> f64 {
        self.region_cost(f, |_| true)
    }

    /// Dynamic cost of the instructions selected by `in_region`.
    pub fn region_cost(&self, f: &Function, in_region: impl Fn(ValueId) -> bool) -> f64 {
        let Some(counts) = self.counts.get(&f.name) else {
            return 0.0;
        };
        let mut total = 0.0;
        for b in f.block_ids() {
            for &v in &f.block(b).instrs {
                if !in_region(v) {
                    continue;
                }
                if let Some(op) = f.opcode(v) {
                    let n = counts.get(v.0 as usize).copied().unwrap_or(0);
                    total += Self::cost_of(op) * n as f64;
                }
            }
        }
        total
    }

    /// Dynamic floating-point operation count of the selected instructions
    /// (used by the roofline model for accelerator kernels).
    pub fn region_flops(&self, f: &Function, in_region: impl Fn(ValueId) -> bool) -> f64 {
        let Some(counts) = self.counts.get(&f.name) else {
            return 0.0;
        };
        let mut total = 0.0;
        for b in f.block_ids() {
            for &v in &f.block(b).instrs {
                if !in_region(v) {
                    continue;
                }
                if matches!(
                    f.opcode(v),
                    Some(Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv)
                ) {
                    total += counts.get(v.0 as usize).copied().unwrap_or(0) as f64;
                }
            }
        }
        total
    }

    /// Dynamic bytes moved by loads/stores of the selected instructions.
    pub fn region_bytes(&self, f: &Function, in_region: impl Fn(ValueId) -> bool) -> f64 {
        let Some(counts) = self.counts.get(&f.name) else {
            return 0.0;
        };
        let mut total = 0.0;
        for b in f.block_ids() {
            for &v in &f.block(b).instrs {
                if !in_region(v) {
                    continue;
                }
                let Some(i) = f.instr(v) else { continue };
                let width = match i.opcode {
                    Opcode::Load => f.value(v).ty.size_bytes(),
                    Opcode::Store => f.value(i.operands[0]).ty.size_bytes(),
                    _ => continue,
                };
                total += width as f64 * counts.get(v.0 as usize).copied().unwrap_or(0) as f64;
            }
        }
        total
    }

    /// Merges a dense per-value count vector (the bytecode VM's profile
    /// representation) into this profile under `func`'s name.
    pub(crate) fn add_counts(&mut self, func: &str, counts: &[u64]) {
        if counts.iter().all(|&c| c == 0) {
            return;
        }
        let mine = self.counts.entry(func.to_owned()).or_default();
        if mine.len() < counts.len() {
            mine.resize(counts.len(), 0);
        }
        for (i, &c) in counts.iter().enumerate() {
            mine[i] += c;
        }
    }

    /// Merges another profile into this one (summing counts).
    pub fn merge(&mut self, other: &Profile) {
        for (fname, cs) in &other.counts {
            let mine = self.counts.entry(fname.clone()).or_default();
            if mine.len() < cs.len() {
                mine.resize(cs.len(), 0);
            }
            for (i, &c) in cs.iter().enumerate() {
                mine[i] += c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_sane() {
        assert_eq!(Profile::cost_of(Opcode::FAdd), 1.0);
        assert_eq!(Profile::cost_of(Opcode::Load), 4.0);
        assert!(Profile::cost_of(Opcode::FDiv) > Profile::cost_of(Opcode::FMul));
    }

    #[test]
    fn merge_sums_counts() {
        let f = ssair::parser::parse_function_text(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 1\n  ret i32 %x\n}\n",
        )
        .unwrap();
        let x = f.block(ssair::BlockId(0)).instrs[0];
        let mut p1 = Profile::new();
        p1.bump(&f, x);
        let mut p2 = Profile::new();
        p2.bump(&f, x);
        p2.bump(&f, x);
        p1.merge(&p2);
        assert_eq!(p1.count("f", x), 3);
    }
}

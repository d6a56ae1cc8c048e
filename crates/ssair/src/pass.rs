//! Small transformation utilities shared by the frontend optimizer and the
//! idiom replacement phase: use rewriting, dead-code elimination and
//! unreachable-block removal.
//!
//! The paper's replacement scheme (§6.1) deletes only the anchoring store
//! of a matched idiom "and the remaining cleanup is left to the standard
//! dead code elimination pass" — [`eliminate_dead_code`] is that pass.
//!
//! SSA is edited one way. Every use rewrite goes through
//! [`rewrite_uses`]: a pass collects its `(from, to)` pairs, one scan
//! rewrites every operand, a `to` that is itself rewritten is followed to
//! the end of its chain, and dead-code elimination then removes what lost
//! its last user. Every placement inside a block goes through
//! [`Function::place`] (see [`crate::function::InsertPoint`]); a pass that
//! moves or drops an instruction takes it out of its own block, which it
//! knows, rather than scanning the function for it.

use crate::function::{Function, Opcode, ValueId};

/// Applies a whole set of `(from, to)` use rewrites in one scan, then
/// removes dead code. A `to` that is itself a `from` is followed to the
/// end of its chain, so `[(b, c), (a, b)]` sends the users of both `a`
/// and `b` to `c` whatever the order of the pairs. Returns the number of
/// pairs; with none, `f` is left untouched.
pub fn rewrite_uses(f: &mut Function, rewrites: &[(ValueId, ValueId)]) -> usize {
    if rewrites.is_empty() {
        return 0;
    }
    // Dense by value id: one lookup per operand.
    let mut to: Vec<Option<ValueId>> = vec![None; f.num_values()];
    for &(from, target) in rewrites {
        to[from.0 as usize] = Some(target);
    }
    let resolve = |mut v: ValueId| {
        // A chain is at most as long as the set; the bound also stops a
        // (malformed) cycle.
        for _ in 0..rewrites.len() {
            match to[v.0 as usize] {
                Some(next) => v = next,
                None => break,
            }
        }
        v
    };
    for v in (0..f.num_values()).map(|i| ValueId(i as u32)) {
        let Some(instr) = f.instr_mut(v) else {
            continue;
        };
        for op in &mut instr.operands {
            if to[op.0 as usize].is_some() {
                *op = resolve(*op);
            }
        }
    }
    eliminate_dead_code(f);
    rewrites.len()
}

/// Removes instructions that have no users and no side effects, and then
/// those that lose their last user to that removal. Returns the number of
/// removed instructions.
///
/// Uses are counted once over the placed instructions (retired arena
/// slots do not count); each dead instruction then gives back the counts
/// of its operands, so a dead chain goes in one sweep and the blocks are
/// compacted by one `retain` each. A value used only by itself — a
/// self-referential phi, or a phi cycle — keeps a use and stays.
pub fn eliminate_dead_code(f: &mut Function) -> usize {
    let n = f.num_values();
    let mut uses = vec![0u32; n];
    let mut placed = vec![false; n];
    for b in f.block_ids() {
        for &v in &f.block(b).instrs {
            if std::mem::replace(&mut placed[v.0 as usize], true) {
                continue;
            }
            if let Some(i) = f.instr(v) {
                for &op in &i.operands {
                    uses[op.0 as usize] += 1;
                }
            }
        }
    }
    let removable = |f: &Function, v: ValueId| {
        f.instr(v).is_some_and(|i| {
            !matches!(
                i.opcode,
                Opcode::Store | Opcode::Ret | Opcode::Br | Opcode::CondBr | Opcode::Call
            )
        })
    };
    let mut work: Vec<ValueId> = f
        .block_ids()
        .flat_map(|b| f.block(b).instrs.iter().copied())
        .filter(|&v| uses[v.0 as usize] == 0 && removable(f, v))
        .collect();
    let mut dead = vec![false; n];
    let mut removed = 0;
    while let Some(v) = work.pop() {
        if std::mem::replace(&mut dead[v.0 as usize], true) {
            continue;
        }
        removed += 1;
        for &op in &f
            .instr(v)
            .expect("removable values are instructions")
            .operands
        {
            let k = op.0 as usize;
            uses[k] -= 1;
            if uses[k] == 0 && placed[k] && removable(f, op) {
                work.push(op);
            }
        }
    }
    if removed > 0 {
        for b in f.block_ids().collect::<Vec<_>>() {
            f.block_mut(b).instrs.retain(|v| !dead[v.0 as usize]);
        }
    }
    removed
}

/// Removes blocks unreachable from the entry, compacting block ids and
/// rewriting branch targets and phi incoming lists. Phi edges from removed
/// predecessors are dropped; phis left with a single incoming value are
/// replaced by that value (and removed with the rest of the dead code).
/// Used after idiom replacement excises a loop.
pub fn remove_unreachable_blocks(f: &mut Function) -> usize {
    use crate::function::BlockId;
    // Reachability.
    let n = f.num_blocks();
    let mut reach = vec![false; n];
    let mut stack = vec![BlockId(0)];
    reach[0] = true;
    while let Some(b) = stack.pop() {
        for &s in f.successors(b) {
            if !reach[s.0 as usize] {
                reach[s.0 as usize] = true;
                stack.push(s);
            }
        }
    }
    let removed = reach.iter().filter(|r| !**r).count();
    if removed == 0 {
        return 0;
    }
    // Remap ids.
    let mut remap: Vec<Option<u32>> = vec![None; n];
    let mut next = 0u32;
    for i in 0..n {
        if reach[i] {
            remap[i] = Some(next);
            next += 1;
        }
    }
    // Drop phi edges from unreachable preds, then single-entry phis.
    let mut simplify: Vec<(ValueId, ValueId)> = Vec::new();
    for b in 0..n {
        if !reach[b] {
            continue;
        }
        for &v in f.block(BlockId(b as u32)).instrs.clone().iter() {
            let Some(i) = f.instr(v) else { continue };
            if i.opcode != Opcode::Phi {
                continue;
            }
            let keep: Vec<(ValueId, crate::BlockId)> = i
                .operands
                .iter()
                .zip(&i.incoming)
                .filter(|(_, inb)| reach[inb.0 as usize])
                .map(|(&op, &inb)| (op, inb))
                .collect();
            let instr = f.instr_mut(v).expect("phi");
            instr.operands = keep.iter().map(|(op, _)| *op).collect();
            instr.incoming = keep.iter().map(|(_, b)| *b).collect();
            if instr.operands.len() == 1 {
                simplify.push((v, instr.operands[0]));
            }
        }
    }
    rewrite_uses(f, &simplify);
    // Rebuild block vector and rewrite ids.
    f.retain_blocks(
        |b| reach[b.0 as usize],
        |old| BlockId(remap[old.0 as usize].expect("reachable")),
    );
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function_text;

    #[test]
    fn dce_removes_transitively_dead_chains() {
        let mut f = parse_function_text(
            r#"
define i32 @f(i32 %a) {
entry:
  %d1 = add i32 %a, 1
  %d2 = mul i32 %d1, %d1
  %live = add i32 %a, 2
  ret i32 %live
}
"#,
        )
        .unwrap();
        let removed = eliminate_dead_code(&mut f);
        assert_eq!(removed, 2, "d2 then d1");
        assert_eq!(f.block(crate::BlockId(0)).instrs.len(), 2);
    }

    #[test]
    fn dce_keeps_stores_and_calls() {
        let mut f = parse_function_text(
            r#"
define void @g(double* %p) {
entry:
  store double 1.0, double* %p
  %r = call double @sqrt(double 2.0)
  ret void
}
"#,
        )
        .unwrap();
        assert_eq!(eliminate_dead_code(&mut f), 0);
        assert_eq!(f.block(crate::BlockId(0)).instrs.len(), 3);
    }

    #[test]
    fn dce_removes_a_branching_dead_chain_in_one_call() {
        let mut f = parse_function_text(
            r#"
define i32 @c(i32 %a) {
entry:
  %d1 = add i32 %a, 1
  %d2 = mul i32 %d1, %d1
  %d3 = sub i32 %d1, %a
  %d4 = add i32 %d2, %d3
  %d5 = icmp slt i32 %d4, %a
  ret i32 %a
}
"#,
        )
        .unwrap();
        assert_eq!(eliminate_dead_code(&mut f), 5);
        assert_eq!(f.block(crate::BlockId(0)).instrs.len(), 1, "only ret");
        assert_eq!(
            eliminate_dead_code(&mut f),
            0,
            "one call reaches the fixpoint"
        );
    }

    #[test]
    fn dce_keeps_dead_phi_cycles_and_self_referential_phis() {
        let text = r#"
define void @p(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %header ]
  %self = phi i64 [ 0, %entry ], [ %self, %header ]
  %i.next = add i64 %i, 1
  %cond = icmp slt i64 %i.next, %n
  %dead = add i64 %self, 1
  br i1 %cond, label %header, label %exit
exit:
  ret void
}
"#;
        let mut f = parse_function_text(text).unwrap();
        let dead = f.named("dead").unwrap();
        assert_eq!(eliminate_dead_code(&mut f), 1, "only %dead goes");
        let header = &f.block(crate::BlockId(1)).instrs;
        assert!(!header.contains(&dead));
        for kept in ["i", "self", "i.next", "cond"] {
            assert!(header.contains(&f.named(kept).unwrap()), "%{kept} stays");
        }
    }

    #[test]
    fn dce_never_removes_stores_calls_or_terminators() {
        let mut f = parse_function_text(
            r#"
define void @e(double* %p, i1 %c) {
entry:
  store double 1.0, double* %p
  %r = call double @sqrt(double 2.0)
  br i1 %c, label %next, label %out
next:
  br label %out
out:
  ret void
}
"#,
        )
        .unwrap();
        let before = f.clone();
        assert_eq!(eliminate_dead_code(&mut f), 0);
        assert_eq!(f, before);
    }

    #[test]
    fn dce_ignores_retired_arena_slots() {
        let mut f = parse_function_text(
            r#"
define i32 @r(i32 %a) {
entry:
  %x = add i32 %a, 1
  %y = mul i32 %x, 2
  %z = add i32 %y, %a
  ret i32 %a
}
"#,
        )
        .unwrap();
        let [x, y, z] = ["x", "y", "z"].map(|n| f.named(n).unwrap());
        // Retire %z without clearing its operands: it no longer counts as
        // a user of %y, and is not counted as removed itself.
        f.block_mut(crate::BlockId(0)).instrs.retain(|&v| v != z);
        assert_eq!(eliminate_dead_code(&mut f), 2, "%y and %x");
        let entry = &f.block(crate::BlockId(0)).instrs;
        assert!(!entry.contains(&x) && !entry.contains(&y));
        assert_eq!(entry.len(), 1, "only ret");
    }

    /// Load forwarding's shape: `u` is forwarded to `t`, and a reload
    /// of what was stored from `u` is forwarded to `u`.
    const FORWARD_CHAIN: &str = r#"
define double @c(double* %a, double* %b) {
entry:
  %t = load double, double* %a
  %u = load double, double* %a
  store double %u, double* %b
  %w = load double, double* %b
  %a1 = getelementptr double, double* %a, i64 1
  store double %w, double* %a1
  ret double %t
}
"#;

    #[test]
    fn rewrite_uses_follows_a_two_link_chain_in_either_order() {
        for reversed in [false, true] {
            let mut f = parse_function_text(FORWARD_CHAIN).unwrap();
            let [t, u, w] = ["t", "u", "w"].map(|n| f.named(n).unwrap());
            let mut rewrites = vec![(u, t), (w, u)];
            if reversed {
                rewrites.reverse();
            }
            assert_eq!(rewrite_uses(&mut f, &rewrites), 2);
            crate::verify::verify_function(&f).expect("rewritten IR verifies");
            let entry = &f.block(crate::BlockId(0)).instrs;
            assert!(!entry.contains(&u) && !entry.contains(&w), "DCE ran");
            let stored: Vec<ValueId> = entry
                .iter()
                .filter(|&&v| f.opcode(v) == Some(Opcode::Store))
                .map(|&v| f.instr(v).unwrap().operands[0])
                .collect();
            assert_eq!(stored, vec![t, t], "reversed: {reversed}");
        }
    }

    #[test]
    fn rewrite_uses_without_pairs_leaves_dead_code() {
        let mut f = parse_function_text(
            "define i32 @d(i32 %a) {\nentry:\n  %dead = add i32 %a, 1\n  ret i32 %a\n}\n",
        )
        .unwrap();
        let before = f.clone();
        assert_eq!(rewrite_uses(&mut f, &[]), 0);
        assert_eq!(f, before);
    }
}

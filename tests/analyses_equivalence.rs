//! The flat per-function analyses (`ssair::analysis`) against brute-force
//! references built here by scanning the function: CFG edges (order and
//! duplicates included), reverse post-order and exits, dominance and
//! post-dominance on every block pair, immediate (post-)dominators,
//! def-use chains (order and deduplication included) and the
//! instruction-level control-flow edge test. Solver step counts depend
//! on candidate order, so every order is compared, not only the sets.
//!
//! Inputs: hand-written edge cases, the 21 suite benchmarks (compiled
//! and transformed, device programs included) and progen seeds 0..200;
//! the `#[ignore]`d test extends progen to 2000.

use idiomatch::ssair::analysis::Analyses;
use idiomatch::ssair::{BlockId, Function, Module, Opcode, ValueId};
use idiomatch::{benchsuite, minicc, progen, ssair, xform};

/// Successors by scanning the block's last instruction.
fn ref_succs(f: &Function, b: BlockId) -> Vec<BlockId> {
    f.block(b)
        .instrs
        .last()
        .and_then(|&t| f.instr(t))
        .filter(|i| i.opcode.is_terminator())
        .map(|i| i.targets.clone())
        .unwrap_or_default()
}

/// Blocks reachable from `from` along `next`, never entering `avoid`.
fn reach(
    n: usize,
    from: &[BlockId],
    avoid: Option<BlockId>,
    next: &dyn Fn(BlockId) -> Vec<BlockId>,
) -> Vec<bool> {
    let mut seen = vec![false; n];
    let mut stack: Vec<BlockId> = from.iter().copied().filter(|&b| Some(b) != avoid).collect();
    for &b in &stack {
        seen[b.0 as usize] = true;
    }
    while let Some(b) = stack.pop() {
        for s in next(b) {
            if Some(s) != avoid && !seen[s.0 as usize] {
                seen[s.0 as usize] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Recursive depth-first post-order from the entry.
fn post_order(f: &Function, b: BlockId, seen: &mut [bool], out: &mut Vec<BlockId>) {
    seen[b.0 as usize] = true;
    for s in ref_succs(f, b) {
        if !seen[s.0 as usize] {
            post_order(f, s, seen, out);
        }
    }
    out.push(b);
}

/// `dom[a][b]`: `a` (post-)dominates `b`, by removing `a` and testing
/// whether `b` is still reachable from the roots.
fn ref_dominance(
    n: usize,
    roots: &[BlockId],
    next: &dyn Fn(BlockId) -> Vec<BlockId>,
) -> Vec<Vec<bool>> {
    let all = reach(n, roots, None, next);
    (0..n)
        .map(|a| {
            let a = BlockId(a as u32);
            let without = reach(n, roots, Some(a), next);
            (0..n)
                .map(|b| all[b] && all[a.0 as usize] && (b == a.0 as usize || !without[b]))
                .collect()
        })
        .collect()
}

/// The closest strict dominator of `b`: the one every other strict
/// dominator dominates.
fn ref_idom(dom: &[Vec<bool>], b: usize) -> Option<BlockId> {
    let strict: Vec<usize> = (0..dom.len()).filter(|&a| a != b && dom[a][b]).collect();
    strict
        .iter()
        .copied()
        .find(|&d| strict.iter().all(|&e| dom[e][d]))
        .map(|d| BlockId(d as u32))
}

/// Users of `v` by scanning every placed instruction in block order.
fn ref_users(f: &Function, v: ValueId) -> Vec<ValueId> {
    f.block_ids()
        .flat_map(|b| f.block(b).instrs.iter().copied())
        .filter(|&u| f.instr(u).is_some_and(|i| i.operands.contains(&v)))
        .collect()
}

fn check_function(f: &Function) {
    let name = &f.name;
    let an = Analyses::new(f);
    let n = f.num_blocks();
    let blocks: Vec<BlockId> = f.block_ids().collect();
    let succs = |b: BlockId| ref_succs(f, b);
    let preds = |b: BlockId| -> Vec<BlockId> {
        blocks
            .iter()
            .flat_map(|&a| ref_succs(f, a).into_iter().map(move |s| (a, s)))
            .filter(|&(_, s)| s == b)
            .map(|(a, _)| a)
            .collect()
    };

    // CFG.
    assert_eq!(an.cfg.num_blocks(), n, "{name}");
    for &b in &blocks {
        assert_eq!(an.cfg.succs(b), succs(b), "{name}: succs of {b}");
        assert_eq!(an.cfg.preds(b), preds(b), "{name}: preds of {b}");
    }
    let mut rpo = Vec::new();
    if n > 0 {
        post_order(f, BlockId(0), &mut vec![false; n], &mut rpo);
    }
    rpo.reverse();
    assert_eq!(an.cfg.rpo, rpo, "{name}: rpo");
    for &b in &blocks {
        let at = rpo.iter().position(|&r| r == b);
        assert_eq!(an.cfg.rpo_index[b.0 as usize], at.unwrap_or(usize::MAX));
        assert_eq!(an.cfg.is_reachable(b), at.is_some(), "{name}: {b}");
    }
    let exits: Vec<BlockId> = blocks
        .iter()
        .copied()
        .filter(|&b| {
            let last = f.block(b).instrs.last();
            last.is_some_and(|&t| f.opcode(t) == Some(Opcode::Ret))
        })
        .collect();
    assert_eq!(an.cfg.exits, exits, "{name}: exits");

    // Dominance and post-dominance on every block pair.
    let dom = ref_dominance(n, &[BlockId(0)][..n.min(1)], &succs);
    let postdom = ref_dominance(n, &exits, &preds);
    for &a in &blocks {
        for &b in &blocks {
            let (ai, bi) = (a.0 as usize, b.0 as usize);
            assert_eq!(an.dom.dominates(a, b), dom[ai][bi], "{name}: {a} dom {b}");
            assert_eq!(
                an.postdom.dominates(a, b),
                postdom[ai][bi],
                "{name}: {a} postdom {b}"
            );
        }
        let bi = a.0 as usize;
        assert_eq!(an.dom.idom(a), ref_idom(&dom, bi), "{name}: idom {a}");
        assert_eq!(
            an.postdom.idom(a),
            ref_idom(&postdom, bi),
            "{name}: ipostdom {a}"
        );
    }

    // Def-use chains.
    for v in f.value_ids() {
        let users = ref_users(f, v);
        assert_eq!(an.defuse.users(v), users, "{name}: users of {v}");
        assert_eq!(an.defuse.is_unused(v), users.is_empty());
    }

    // Instruction-level control-flow edges: every edge ends at the next
    // instruction of the block or at a block's first instruction, so
    // those plus the whole block are the candidates worth asking about.
    let firsts: Vec<ValueId> = blocks
        .iter()
        .filter_map(|&b| f.block(b).instrs.first().copied())
        .collect();
    for &b in &blocks {
        let instrs = &f.block(b).instrs;
        for (pos, &a) in instrs.iter().enumerate() {
            let expect: Vec<ValueId> = match instrs.get(pos + 1) {
                Some(&next) => vec![next],
                None => succs(b)
                    .iter()
                    .filter_map(|&t| f.block(t).instrs.first().copied())
                    .collect(),
            };
            let got = an.control_flow_successors(f, a);
            assert_eq!(got, expect, "{name}: control-flow successors of {a}");
            for &c in firsts.iter().chain(instrs) {
                assert_eq!(
                    an.has_control_flow_edge(f, a, c),
                    got.contains(&c),
                    "{name}: edge {a} -> {c}"
                );
            }
        }
    }
    for v in f.value_ids().filter(|&v| !f.is_instruction(v)) {
        assert!(an.control_flow_successors(f, v).is_empty());
        assert!(!an.has_control_flow_edge(f, v, v));
    }
}

fn check_module(m: &Module) {
    for f in &m.functions {
        check_function(f);
    }
}

fn check_progen(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let spec = progen::generate(seed);
        let m = minicc::compile(&spec.render(), &spec.module_name()).expect("progen compiles");
        check_module(&m);
    }
}

#[test]
fn edge_cases_match_brute_force() {
    // A conditional branch with both edges to one block (a duplicate
    // predecessor), an unreachable block, a loop with no way out, two
    // exits, and a value used twice by one instruction.
    let m = ssair::parser::parse_module(
        r#"
define i64 @dup(i1 %c, i64 %x) {
entry:
  %sq = mul i64 %x, %x
  br i1 %c, label %join, label %join
dead:
  br label %join
join:
  %p = phi i64 [ %sq, %entry ], [ %sq, %entry ], [ 0, %dead ]
  ret i64 %p
}

define void @spin(i1 %c) {
entry:
  br i1 %c, label %loop, label %out
loop:
  br label %loop
out:
  ret void
}

define i64 @two(i1 %c, i64 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  ret i64 %x
b:
  %y = add i64 %x, %x
  ret i64 %y
}
"#,
    )
    .expect("test IR parses");
    check_module(&m);
}

#[test]
fn suite_analyses_match_brute_force() {
    for b in benchsuite::all() {
        let m = minicc::compile(b.source, b.name).expect("suite compiles");
        check_module(&m);
        check_module(&xform::transform_module(&m).module);
    }
}

#[test]
fn progen_analyses_match_brute_force() {
    check_progen(0..200);
}

#[test]
#[ignore = "release sweep: progen 200..2000"]
fn progen_analyses_match_brute_force_to_2000() {
    check_progen(200..2000);
}

//! Release only: deriving a requirement signature is near-linear in the
//! size of the constraint. The derivation used to re-check its shape
//! predicates over every fact at every conjunct, which is cubic in the
//! number of atoms.
#![cfg(not(debug_assertions))]

use analysis::IdiomRequirements;
use idl::{Atom, AtomKind, CTree, CompiledConstraint, OpcodeClass, SymbolTable, VarId};

fn atom(kind: AtomKind, vars: &[u32]) -> CTree {
    CTree::Atom(Atom {
        kind,
        vars: vars.iter().map(|&v| VarId(v)).collect(),
        families: Vec::new(),
    })
}

fn is(class: OpcodeClass, v: u32) -> CTree {
    atom(AtomKind::OpcodeIs(class), &[v])
}

fn arg(pos: usize, operand: u32, user: u32) -> CTree {
    atom(AtomKind::ArgumentOf { pos }, &[operand, user])
}

/// An idiom-like constraint over `n` groups: the conjunction of every
/// group's gep/load/store atoms (gep `g` indexed by the shared phi `p`,
/// read by load `l` and written through by store `s`), and an `or` of
/// `n` arms, each an `and` that has its group's store write the shared
/// load `v`. The groups show a read-modify-write gep and a phi-indexed
/// store; no arm shows an indirect gep index, so the derivation checks
/// the arms for it.
fn synthetic(n: u32) -> CompiledConstraint {
    let (p, v) = (0, 1);
    let (g, l, s) = (|i| 2 + 3 * i, |i| 3 + 3 * i, |i| 4 + 3 * i);
    let mut spine = vec![is(OpcodeClass::Phi, p)];
    for i in 0..n {
        spine.extend([
            is(OpcodeClass::Gep, g(i)),
            arg(1, p, g(i)),
            is(OpcodeClass::Load, l(i)),
            arg(0, g(i), l(i)),
            is(OpcodeClass::Store, s(i)),
            arg(1, g(i), s(i)),
        ]);
    }
    let arms = (0..n)
        .map(|i| {
            CTree::And(vec![
                is(OpcodeClass::Load, v),
                arg(0, v, s(i)),
                is(OpcodeClass::Store, s(i)),
            ])
        })
        .collect();
    spine.push(CTree::Or(arms));
    CompiledConstraint {
        name: format!("Synthetic{n}"),
        tree: CTree::And(spine),
        symbols: SymbolTable::new(),
        variables: Vec::new(),
        order: Vec::new(),
        skeletons: Vec::new(),
        index_cache: std::sync::OnceLock::new(),
    }
}

#[test]
#[ignore = "timing; run with --include-ignored in release"]
fn requirement_signatures_derive_in_near_linear_time() {
    let (small, large) = (synthetic(500), synthetic(2_000));
    let r = IdiomRequirements::of(&small);
    assert!(r.needs_rmw_gep && r.needs_phi_indexed_store && !r.needs_indirect_gep_index);
    assert_eq!(r.min_phis, 1);
    let time = |c: &CompiledConstraint| {
        let t = std::time::Instant::now();
        std::hint::black_box(IdiomRequirements::of(c));
        t.elapsed().as_secs_f64()
    };
    // The fastest of three alternating runs, so that a stall of the box
    // (or a test running beside this one) does not count.
    let (mut t_small, mut t_large) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        t_small = t_small.min(time(&small));
        t_large = t_large.min(time(&large));
    }
    assert!(t_small < 1.0, "500 groups took {t_small:.4} s");
    assert!(
        t_large <= 6.0 * t_small,
        "2,000 groups took {t_large:.4} s, 500 took {t_small:.4} s"
    );
}

//! Golden pins of the process-wide idiom library build: the requirement
//! signature of every idiom kind, and an FNV-1a hash of every compiled
//! idiom constraint and every standalone skeleton chain. A change to how
//! the library is lexed, parsed, compiled or analysed must leave all of
//! them unchanged; a deliberate change to the bundled IDL re-pins them.

use idioms::{compiled, requirements, skeleton_constraints, IdiomKind, BUILDING_BLOCKS_IDL};
use idl::{CompiledConstraint, VarId};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the compiled content of `c`: its name, every symbol name
/// in id order, the searchable variables, the search order, the skeleton
/// markers and the constraint tree.
fn constraint_hash(c: &CompiledConstraint) -> u64 {
    let symbols: Vec<&str> = (0..c.symbols.len())
        .map(|i| {
            c.symbols
                .name(VarId(u32::try_from(i).expect("symbol id fits u32")))
        })
        .collect();
    let text = format!(
        "{:?}\n{symbols:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        c.name, c.variables, c.order, c.skeletons, c.tree
    );
    fnv1a(FNV_OFFSET, text.as_bytes())
}

const REQUIREMENTS: [(IdiomKind, &str); 6] = [
    (
        IdiomKind::Gemm,
        "IdiomRequirements { required_opcodes: {Store, Load, Branch, Add, Mul, FAdd, FMul, Gep, ICmp, Phi}, min_loop_depth: 3, min_phis: 3, needs_indirect_gep_index: false, needs_rmw_gep: false, needs_phi_indexed_store: false }",
    ),
    (
        IdiomKind::Spmv,
        "IdiomRequirements { required_opcodes: {Store, Load, Branch, Add, FAdd, FMul, Gep, ICmp, Phi}, min_loop_depth: 1, min_phis: 2, needs_indirect_gep_index: true, needs_rmw_gep: false, needs_phi_indexed_store: true }",
    ),
    (
        IdiomKind::Stencil1D,
        "IdiomRequirements { required_opcodes: {Store, Branch, Add, Gep, ICmp, Phi}, min_loop_depth: 1, min_phis: 1, needs_indirect_gep_index: false, needs_rmw_gep: false, needs_phi_indexed_store: true }",
    ),
    (
        IdiomKind::Stencil2D,
        "IdiomRequirements { required_opcodes: {Store, Branch, Add, Mul, Gep, ICmp, Phi}, min_loop_depth: 2, min_phis: 2, needs_indirect_gep_index: false, needs_rmw_gep: false, needs_phi_indexed_store: false }",
    ),
    (
        IdiomKind::Histogram,
        "IdiomRequirements { required_opcodes: {Store, Load, Branch, Add, Gep, ICmp, Phi}, min_loop_depth: 1, min_phis: 1, needs_indirect_gep_index: false, needs_rmw_gep: true, needs_phi_indexed_store: false }",
    ),
    (
        IdiomKind::Reduction,
        "IdiomRequirements { required_opcodes: {Branch, Add, ICmp, Phi}, min_loop_depth: 1, min_phis: 2, needs_indirect_gep_index: false, needs_rmw_gep: false, needs_phi_indexed_store: false }",
    ),
];

const COMPILED_HASHES: [(IdiomKind, u64); 6] = [
    (IdiomKind::Gemm, 0x6fec_ffa3_0903_f9db),
    (IdiomKind::Spmv, 0xf07e_03a6_c9af_4d8c),
    (IdiomKind::Stencil1D, 0x11f6_c464_ee97_3e9d),
    (IdiomKind::Stencil2D, 0xf823_734d_18f2_e55a),
    (IdiomKind::Histogram, 0xb9cf_dff5_e6c4_6ad8),
    (IdiomKind::Reduction, 0x6876_2cb0_a1d8_33ae),
];

/// Keyed by chain text, in `skeleton_constraints()` (key) order.
const SKELETON_HASHES: [(&str, u64); 6] = [
    (
        "inherits For",
        0x7754_4ac3_d32d_1ec4,
    ),
    (
        "inherits For and inherits LoopAccumulator",
        0x3794_7a13_c230_9a08,
    ),
    (
        "inherits For and inherits ReadRange with {iterator} as {iterator} and {inner.iter_begin} as {lo} and {inner.iter_end} as {hi} at {ranges}",
        0x7577_4c6c_ca1e_549f,
    ),
    (
        "inherits ForNest(N=2)",
        0xf231_c58c_9b46_a69e,
    ),
    (
        "inherits ForNest(N=3)",
        0x07d6_aaa0_1094_871b,
    ),
    (
        "inherits ForNest(N=3) and inherits DotProductLoop with {loop[2].iterator} as {iterator} and {loop[2].precursor} as {precursor} and {loop[2].backedge} as {backedge} at {dot}",
        0x6d54_2d3b_d2ae_9953,
    ),
];

#[test]
fn requirement_signatures_are_pinned() {
    assert_eq!(REQUIREMENTS.len(), IdiomKind::ALL.len());
    for (kind, want) in REQUIREMENTS {
        assert_eq!(format!("{:?}", requirements(kind)), want, "{kind:?}");
    }
}

#[test]
fn compiled_idioms_are_pinned() {
    assert_eq!(COMPILED_HASHES.len(), IdiomKind::ALL.len());
    for (kind, want) in COMPILED_HASHES {
        let got = constraint_hash(compiled(kind));
        assert_eq!(got, want, "{kind:?}: hash {got:#018x}");
    }
}

#[test]
fn skeleton_chains_are_pinned() {
    let chains = skeleton_constraints();
    let keys: Vec<&str> = chains.keys().map(String::as_str).collect();
    let want: Vec<&str> = SKELETON_HASHES.iter().map(|&(k, _)| k).collect();
    assert_eq!(keys, want);
    for (key, want) in SKELETON_HASHES {
        let got = constraint_hash(&chains[key]);
        assert_eq!(got, want, "{key:?}: hash {got:#018x}");
    }
}

/// Every shared chain equals the chain compiled from source: the
/// building-block IDL re-parsed together with a `__Skeleton` wrapper of
/// the chain's clauses.
#[test]
fn skeleton_chains_match_a_reparsed_wrapper() {
    for (key, c) in skeleton_constraints() {
        let src = format!("{BUILDING_BLOCKS_IDL}\nConstraint __Skeleton ( {key} ) End");
        let lib = idl::parse_library(&src).expect("skeleton wrapper parses");
        let oracle = idl::compile(&lib, "__Skeleton").expect("skeleton wrapper compiles");
        assert!(*c == oracle, "{key:?}: differs from the re-parsed wrapper");
    }
}

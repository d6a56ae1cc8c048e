//! Static replacement-legality checking (§6.3), built on the
//! restrict-parameter aliasing model: every memory object is named by
//! its base pointer (a function argument or an `alloca`), and distinct
//! base pointers do not alias. Before a replacement commits, the region
//! about to be excised must be *pure outside its reported reads and
//! writes* — every store lands in a reported output object, every live
//! load comes from a reported input (or output, for read-modify-write
//! idioms), and every call is a pure math intrinsic.

use crate::depend::{classify_alias, disjoint_across, AliasClass, ParamAliasFacts};
use ssair::analysis::{address_root, AffineMap, Analyses, DefUse};
use ssair::{BlockId, Function, Opcode, ValueId, ValueKind};
use std::collections::BTreeSet;

/// What kind of memory object a base pointer names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryBase {
    /// The `index`-th formal parameter — a caller-owned object.
    Param(usize),
    /// A function-local `alloca` — storage no parameter can alias.
    Alloca,
    /// Anything else (a loaded pointer, a call result, a constant): not
    /// a named object, so the restrict model cannot speak about it.
    Unknown,
}

/// Classifies the object a (rooted) base pointer names.
#[must_use]
pub fn classify_base(f: &Function, v: ValueId) -> MemoryBase {
    match &f.value(v).kind {
        ValueKind::Argument { index } => MemoryBase::Param(*index),
        ValueKind::Instr(i) if i.opcode == Opcode::Alloca => MemoryBase::Alloca,
        _ => MemoryBase::Unknown,
    }
}

/// Why a region failed the static legality check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LegalityError {
    /// A call to something outside the pure-intrinsic whitelist.
    ImpureCall(String),
    /// A store whose address is not rooted at a reported write object.
    UnreportedWrite(String),
    /// A live load whose address is not rooted at a reported object.
    UnreportedRead(String),
    /// A reported base pointer is not a named memory object (argument or
    /// `alloca`), so the restrict model cannot speak about it.
    UnnamedObject(String),
}

impl std::fmt::Display for LegalityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LegalityError::ImpureCall(m) => write!(f, "impure call {m} in region"),
            LegalityError::UnreportedWrite(m) => write!(f, "store {m} outside reported writes"),
            LegalityError::UnreportedRead(m) => write!(f, "load {m} outside reported reads"),
            LegalityError::UnnamedObject(m) => {
                write!(f, "reported base pointer {m} is not a named memory object")
            }
        }
    }
}

/// Verifies that the region is pure outside its reported objects:
///
/// * no impure calls;
/// * every reported base pointer is a named object (argument/`alloca`),
///   so the restrict model applies;
/// * every store is rooted at a reported write object;
/// * every *live* load (its value has users) is rooted at a reported
///   read or write object. Dead loads are tolerated: excising one
///   cannot change behaviour.
///
/// `reads` and `writes` are the base pointers the detected instance
/// reports (already rooted or not — roots are taken here); `defuse` is
/// `f`'s.
fn check_region_purity(
    f: &Function,
    defuse: &DefUse,
    blocks: &[BlockId],
    reads: &[ValueId],
    writes: &[ValueId],
) -> Result<(), LegalityError> {
    let named = |v: ValueId| classify_base(f, v) != MemoryBase::Unknown;
    let read_roots: BTreeSet<ValueId> = reads.iter().map(|&v| address_root(f, v)).collect();
    let write_roots: BTreeSet<ValueId> = writes.iter().map(|&v| address_root(f, v)).collect();
    for &r in read_roots.iter().chain(write_roots.iter()) {
        if !named(r) {
            return Err(LegalityError::UnnamedObject(f.display_name(r)));
        }
    }
    for &b in blocks {
        for &v in &f.block(b).instrs {
            let Some(i) = f.instr(v) else { continue };
            match i.opcode {
                Opcode::Load => {
                    let root = address_root(f, i.operands[0]);
                    if !read_roots.contains(&root)
                        && !write_roots.contains(&root)
                        && !defuse.is_unused(v)
                    {
                        return Err(LegalityError::UnreportedRead(f.display_name(v)));
                    }
                }
                Opcode::Store => {
                    let root = address_root(f, i.operands[1]);
                    if !write_roots.contains(&root) {
                        return Err(LegalityError::UnreportedWrite(f.display_name(v)));
                    }
                }
                Opcode::Call if !i.is_math_call() => {
                    return Err(LegalityError::ImpureCall(
                        i.callee.clone().unwrap_or_default(),
                    ));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// The strength of a legality verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerdictKind {
    /// Every base-pointer pair the replacement relies on is proven
    /// disjoint (or provably per-iteration disjoint on a shared base).
    Proven,
    /// Sound only under the restrict-parameter assumption for at least
    /// one pair.
    AssumedRestrict,
    /// The region must not be replaced: a write overlaps memory it
    /// cannot be proven (or assumed) disjoint from, or the region is
    /// impure outside its reported objects.
    Rejected,
}

impl VerdictKind {
    /// The stable wire name used in BENCH artifacts.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            VerdictKind::Proven => "proven",
            VerdictKind::AssumedRestrict => "assumed_restrict",
            VerdictKind::Rejected => "rejected",
        }
    }
}

/// An evidence-carrying replacement-legality verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegalityVerdict {
    /// The overall strength.
    pub kind: VerdictKind,
    /// One line per fact: proofs, assumptions, or the rejection reason.
    pub evidence: Vec<String>,
}

impl LegalityVerdict {
    fn rejected(reason: String) -> LegalityVerdict {
        LegalityVerdict {
            kind: VerdictKind::Rejected,
            evidence: vec![reason],
        }
    }
}

/// Judges the legality of replacing `blocks` given the instance's
/// reported `reads` and `writes` base pointers: purity first (no impure
/// call, every reported base a named object, every store and live load
/// rooted at a reported object), then every write-object pair is
/// classified — distinct objects must be proven or assumed disjoint, and
/// a base both written and read must have its store/load pairs proven
/// per-iteration disjoint across the loop of `outer_iv` (or be a
/// same-address read-modify-write, the accumulating-idiom shape).
///
/// `facts` (module-wide call-site alias facts) upgrades parameter pairs
/// from assumption to proof, or rejects pairs a call site shows aliased.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn check_region_legality(
    f: &Function,
    an: &Analyses,
    map: &AffineMap,
    blocks: &[BlockId],
    reads: &[ValueId],
    writes: &[ValueId],
    outer_iv: Option<ValueId>,
    facts: Option<&ParamAliasFacts>,
) -> LegalityVerdict {
    if let Err(e) = check_region_purity(f, &an.defuse, blocks, reads, writes) {
        return LegalityVerdict::rejected(e.to_string());
    }
    let read_roots: BTreeSet<ValueId> = reads.iter().map(|&v| address_root(f, v)).collect();
    let write_roots: BTreeSet<ValueId> = writes.iter().map(|&v| address_root(f, v)).collect();
    let mut evidence = Vec::new();
    let mut kind = VerdictKind::Proven;
    if write_roots.is_empty() {
        return LegalityVerdict {
            kind,
            evidence: vec!["store-free region: no write can overlap anything".into()],
        };
    }
    let name = |v: ValueId| f.display_name(v);
    // Distinct-object pairs: every written base against every other base.
    for &w in &write_roots {
        for &o in read_roots.iter().chain(write_roots.iter()) {
            if o == w {
                continue;
            }
            match classify_alias(f, facts, w, o) {
                AliasClass::NoAliasProven => {
                    evidence.push(format!("{} and {} are provably distinct", name(w), name(o)));
                }
                AliasClass::NoAliasAssumed => {
                    kind = kind.max(VerdictKind::AssumedRestrict);
                    evidence.push(format!(
                        "assumed restrict: {} vs {} (no call-site proof)",
                        name(w),
                        name(o)
                    ));
                }
                AliasClass::MustAlias => {
                    return LegalityVerdict::rejected(format!(
                        "{} and {} name the same object at a call site",
                        name(w),
                        name(o)
                    ));
                }
                AliasClass::MayAlias => {
                    return LegalityVerdict::rejected(format!(
                        "{} and {} may overlap and no proof applies",
                        name(w),
                        name(o)
                    ));
                }
            }
        }
        // Same-base read/write overlap: every store to `w` against every
        // live load from `w`.
        if !read_roots.contains(&w) {
            continue;
        }
        let mut stores: Vec<ValueId> = Vec::new();
        let mut loads: Vec<ValueId> = Vec::new();
        for &b in blocks {
            for &v in &f.block(b).instrs {
                let Some(i) = f.instr(v) else { continue };
                match i.opcode {
                    Opcode::Load if address_root(f, i.operands[0]) == w => loads.push(v),
                    Opcode::Store if address_root(f, i.operands[1]) == w => stores.push(v),
                    _ => {}
                }
            }
        }
        let loop_idx = outer_iv.and_then(|iv| map.iv(iv)).map(|i| i.loop_idx);
        for &st in &stores {
            let sp = f.instr(st).expect("store instr").operands[1];
            for &ld in &loads {
                let lp = f.instr(ld).expect("load instr").operands[0];
                if lp == sp {
                    // Same-address read-modify-write: the accumulating
                    // idiom shape, legal by the idiom's own semantics.
                    evidence.push(format!(
                        "{} and {} form a same-address read-modify-write",
                        name(st),
                        name(ld)
                    ));
                    continue;
                }
                let proven = loop_idx.is_some_and(|li| {
                    match (map.address_of(f, sp), map.address_of(f, lp)) {
                        (Some(a), Some(b)) => disjoint_across(f, an, map, li, &a.index, &b.index),
                        _ => false,
                    }
                });
                if proven {
                    evidence.push(format!(
                        "{} and {} on {} are per-iteration disjoint",
                        name(st),
                        name(ld),
                        name(w)
                    ));
                } else {
                    return LegalityVerdict::rejected(format!(
                        "write region of {} overlaps its read region ({} vs {})",
                        name(w),
                        name(st),
                        name(ld)
                    ));
                }
            }
        }
    }
    LegalityVerdict { kind, evidence }
}

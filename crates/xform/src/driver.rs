//! Whole-module transformation (paper §6 at suite scale): apply *every*
//! detected idiom replacement in a module, not just a hand-picked first
//! instance.
//!
//! Two problems make this more than a loop over
//! [`apply_replacement`](crate::apply_replacement):
//!
//! 1. **Overlaps.** Detected instances can claim the same loop blocks —
//!    the dot-product loop inside a GEMM nest is itself a scalar
//!    reduction, two same-kind matches can share a loop. Replacing both
//!    would excise a region twice. [`transform_instances`] attempts
//!    instances in a deterministic priority order — within a function,
//!    the instance covering more blocks first (outermost loop), ties
//!    broken by idiom priority ([`IdiomKind::ALL`] order, most specific
//!    first), then anchor id — and an instance is skipped as
//!    [`Outcome::Shadowed`] only when it overlaps an instance that was
//!    actually *replaced* (whose region the rewrite excised). A refused
//!    higher-priority attempt shadows nothing: the instances it
//!    overlapped still get their own attempt on their intact regions.
//! 2. **IR churn.** Each excision compacts block ids
//!    (`remove_unreachable_blocks`), so instances detected against the
//!    original function hold stale regions once a sibling has been
//!    replaced. Value ids are stable, so an instance in a function that
//!    an earlier replacement rewrote re-anchors its region on its outer
//!    iterator phi ([`IdiomInstance::refresh_blocks`]) and plans on fresh
//!    analyses. An instance in a function no replacement has touched
//!    plans on the analyses detection built ([`ModuleAnalyses`]): the
//!    function and its blocks are exactly the ones detection saw.
//!
//! Failures are isolated by the replacement itself: every check runs in
//! its side-effect-free plan, and its commit swaps in the one edited
//! function only once it verifies, so an [`XformError`] (unsupported
//! shape, §6.3 unsoundness) never leaves half-rewritten functions or
//! orphan device programs behind for later instances.

use crate::replace::{commit, plan, Replacement, XformError};
use analysis::ParamAliasFacts;
use idioms::{IdiomInstance, IdiomKind};
use ssair::analysis::{AffineMap, Analyses, ModuleAnalyses};
use ssair::Module;

/// What happened to one detected instance during whole-module
/// transformation.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The loop was excised and replaced by an API call.
    Replaced(Replacement),
    /// The instance overlaps a higher-value instance that *was replaced*
    /// (its region no longer exists) and was skipped.
    Shadowed {
        /// Index of the replaced winning instance in
        /// [`ModuleXform::outcomes`].
        by: usize,
    },
    /// The backend refused the rewrite; the module is unchanged for this
    /// instance.
    Failed(XformError),
}

impl Outcome {
    /// `true` for [`Outcome::Replaced`].
    #[must_use]
    pub fn is_replaced(&self) -> bool {
        matches!(self, Outcome::Replaced(_))
    }
}

/// One instance paired with its transformation outcome.
#[derive(Debug, Clone)]
pub struct InstanceOutcome {
    /// The detected instance (as detected: original block numbering).
    pub instance: IdiomInstance,
    /// What the driver did with it.
    pub outcome: Outcome,
}

/// The result of whole-module transformation.
#[derive(Debug)]
pub struct ModuleXform {
    /// The transformed module (every committed replacement applied).
    pub module: Module,
    /// Per-instance outcomes, in detection order.
    pub outcomes: Vec<InstanceOutcome>,
}

impl ModuleXform {
    /// Number of applied replacements.
    #[must_use]
    pub fn replaced(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome.is_replaced())
            .count()
    }

    /// The parallel-safety certificate of every callee introduced by a
    /// committed replacement, keyed by callee symbol. Library entry
    /// points (`gemm_f64`, `csrmv_f64`) can be shared by several
    /// replacements; the weakest certificate wins, so an executor keyed
    /// off this map is safe for every call site.
    #[must_use]
    pub fn certificates(&self) -> std::collections::BTreeMap<String, idioms::ParallelSafety> {
        let mut map = std::collections::BTreeMap::new();
        for o in &self.outcomes {
            if let Outcome::Replaced(rep) = &o.outcome {
                map.entry(rep.callee.clone())
                    .and_modify(|s: &mut idioms::ParallelSafety| {
                        *s = (*s).max(rep.certificate.safety);
                    })
                    .or_insert(rep.certificate.safety);
            }
        }
        map
    }
}

fn kind_rank(kind: IdiomKind) -> usize {
    IdiomKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL")
}

fn overlaps(a: &IdiomInstance, b: &IdiomInstance) -> bool {
    a.function == b.function && a.blocks.iter().any(|blk| b.blocks.contains(blk))
}

fn region_gone() -> XformError {
    XformError::Unsupported("instance region no longer exists after earlier replacements".into())
}

/// Plans `inst` in `out.functions[k]` and commits it: on detection's
/// analyses while no replacement has touched the function, else on a
/// region re-anchored in the rewritten function and fresh analyses.
fn attempt(
    out: &mut Module,
    k: usize,
    inst: &IdiomInstance,
    untouched: bool,
    analyses: &ModuleAnalyses,
    facts: &ParamAliasFacts,
    uid: usize,
) -> Result<Replacement, XformError> {
    let f = &out.functions[k];
    let planned = if untouched {
        let (an, map) = analyses.get(k, f);
        plan(f, an, map, inst, uid, Some(facts))?
    } else {
        let mut fresh = inst.clone();
        if !fresh.refresh_blocks(f) {
            return Err(region_gone());
        }
        let an = Analyses::new(f);
        let map = AffineMap::new(f, &an);
        plan(f, &an, &map, &fresh, uid, Some(facts))?
    };
    commit(out, k, planned)
}

/// Detects all idiom instances in `module` (via [`idioms::detect_module`])
/// and applies every non-overlapping replacement.
#[must_use]
pub fn transform_module(module: &Module) -> ModuleXform {
    transform_instances(module, idioms::detect_module(module))
}

/// [`transform_module`] over a caller-provided instance list, detected
/// on `module` (e.g. by [`idioms::detect_functions`] with custom limits).
#[must_use]
pub fn transform_instances(module: &Module, instances: Vec<IdiomInstance>) -> ModuleXform {
    transform_instances_with(
        module,
        instances,
        &ParamAliasFacts::of_module(module),
        &ModuleAnalyses::lazy(module),
    )
}

/// [`transform_instances`] under the caller's call-site alias facts of
/// `module` ([`ParamAliasFacts::of_module`]) and analyses of its
/// functions (detection's, or [`ModuleAnalyses::lazy`]), for a caller
/// that built them already or reads them again later.
#[must_use]
pub fn transform_instances_with(
    module: &Module,
    instances: Vec<IdiomInstance>,
    facts: &ParamAliasFacts,
    analyses: &ModuleAnalyses,
) -> ModuleXform {
    // Deterministic attempt order (on the original, consistent block
    // ids): outermost (largest region) first, then idiom priority, then
    // the owning function, then anchor id. The function name must be in
    // the key: anchors are per-function value ids, so two structurally
    // identical instances in different functions collide on every other
    // component — without it the tie fell through to input position and
    // shuffling the input order swapped the uids (and thus the names) of
    // the generated device programs.
    let n = instances.len();
    let mut priority: Vec<usize> = (0..n).collect();
    priority.sort_by(|&x, &y| {
        let a = &instances[x];
        let b = &instances[y];
        (
            usize::MAX - a.blocks.len(), // outermost (largest region) first
            kind_rank(a.kind),           // most specific idiom first
            &a.function,
            a.anchor,
            x, // unreachable for distinct instances; stabilizes duplicates
        )
            .cmp(&(
                usize::MAX - b.blocks.len(),
                kind_rank(b.kind),
                &b.function,
                b.anchor,
                y,
            ))
    });

    // Resolution and application interleave: an instance is shadowed
    // only by an instance that actually *replaced* (its region is the
    // one that got excised). When a higher-priority overlapping attempt
    // is refused, the loop below still reaches the lower-priority
    // instance — its region is intact, so it gets its own attempt
    // instead of being skipped for nothing.
    // Call-site alias facts are a whole-module property of the pristine
    // module; replacements only excise loops inside the functions
    // detection already ran on, so the facts stay valid throughout.
    let mut out = module.clone();
    let mut outcomes: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
    let mut replaced_idx: Vec<usize> = Vec::new();
    // `touched[k]`: a replacement was committed to function `k`.
    let mut touched = vec![false; module.functions.len()];
    let mut uid = 0usize;
    for &i in &priority {
        if let Some(&w) = replaced_idx
            .iter()
            .find(|&&w| overlaps(&instances[w], &instances[i]))
        {
            outcomes[i] = Some(Outcome::Shadowed { by: w });
            continue;
        }
        let inst = &instances[i];
        let k = out.functions.iter().position(|f| f.name == inst.function);
        let result = match k {
            Some(k) => {
                let untouched = touched.get(k) == Some(&false);
                attempt(&mut out, k, inst, untouched, analyses, facts, uid)
            }
            None => Err(region_gone()),
        };
        outcomes[i] = Some(match result {
            Ok(rep) => {
                if let Some(t) = k.and_then(|k| touched.get_mut(k)) {
                    *t = true;
                }
                uid += 1;
                replaced_idx.push(i);
                Outcome::Replaced(rep)
            }
            Err(e) => Outcome::Failed(e),
        });
    }
    ModuleXform {
        module: out,
        outcomes: instances
            .into_iter()
            .zip(outcomes)
            .map(|(instance, outcome)| InstanceOutcome {
                instance,
                outcome: outcome.expect("every instance visited"),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Module {
        minicc::compile(src, "t").expect("compiles")
    }

    const GEMM_SRC: &str = "void mm(double* M1, double* M2, double* M3, int n) {
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) {
                M3[i*n+j] = 0.0;
                for (int k = 0; k < n; k++)
                    M3[i*n+j] += M1[i*n+k] * M2[k*n+j];
            }
    }";

    #[test]
    fn nested_idioms_keep_the_outermost_instance() {
        // The paper's canonical containment: the dot-product loop inside
        // a GEMM nest is itself a scalar reduction. The detector's
        // matrix-read constraints keep it from matching independently, so
        // reconstruct the contained instance from the GEMM's own dot
        // bindings — the driver must keep the outermost GEMM and shadow
        // the inner reduction, regardless of input order.
        let module = compile(GEMM_SRC);
        let instances = idioms::detect_module(&module);
        let gemm = instances
            .iter()
            .find(|i| i.kind == IdiomKind::Gemm)
            .expect("GEMM detected")
            .clone();
        let f = module.function(&gemm.function).unwrap();
        let mut inner = gemm.clone();
        inner.kind = IdiomKind::Reduction;
        inner.anchor = gemm.value("dot.acc").expect("dot accumulator bound");
        inner.bindings.insert(
            "iterator".into(),
            gemm.value("loop[2].iterator")
                .expect("inner iterator bound"),
        );
        assert!(inner.refresh_blocks(f), "inner loop region recomputes");
        assert!(
            inner.blocks.len() < gemm.blocks.len()
                && inner.blocks.iter().all(|b| gemm.blocks.contains(b)),
            "dot-product loop is strictly contained in the GEMM nest"
        );
        // Contained instance listed FIRST: the winner is picked by
        // region size/priority, not input order.
        let xf = transform_instances(&module, vec![inner, gemm]);
        assert!(
            matches!(xf.outcomes[0].outcome, Outcome::Shadowed { by: 1 }),
            "inner reduction must be shadowed by the GEMM, got {:?}",
            xf.outcomes[0].outcome
        );
        assert!(
            xf.outcomes[1].outcome.is_replaced(),
            "GEMM wins: {:?}",
            xf.outcomes[1].outcome
        );
        assert_eq!(xf.replaced(), 1);
    }

    #[test]
    fn same_loop_reductions_resolve_deterministically() {
        // Two accumulators in one loop: two genuine Reduction instances
        // claiming the same blocks. The first attempt is refused as
        // Unsound (the other accumulator escapes the region), and
        // because nothing was replaced the second instance is NOT
        // shadowed — it gets its own attempt and fails the same way.
        // No replacement may silently drop either accumulator.
        let src = "double two(double* x, double* y, int n) {
            double a = 0.0;
            double b = 0.0;
            for (int i = 0; i < n; i++) { a += x[i]; b += y[i]; }
            return a + b;
        }";
        let module = compile(src);
        let instances = idioms::detect_module(&module);
        let reds = instances
            .iter()
            .filter(|i| i.kind == IdiomKind::Reduction)
            .count();
        assert_eq!(reds, 2, "both accumulators detected");
        let xf = transform_instances(&module, instances);
        let unsound = xf
            .outcomes
            .iter()
            .filter(|o| matches!(&o.outcome, Outcome::Failed(XformError::Unsound(_))))
            .count();
        assert_eq!(unsound, 2, "outcomes: {:?}", xf.outcomes);
        assert_eq!(xf.replaced(), 0);
        assert_eq!(
            xf.module.functions.len(),
            module.functions.len(),
            "module unchanged"
        );
    }

    #[test]
    fn failed_winner_does_not_shadow_a_replaceable_loser() {
        // An outer instance that loses its rewrite must not take its
        // contained instances down with it. Forge the containment: a
        // pseudo-GEMM claiming the whole function of a perfectly
        // replaceable reduction, with a binding shape the GEMM backend
        // refuses (no zero-based bounds). The reduction must still be
        // replaced, not reported as shadowed by a failure.
        let src = "double s(double* x, int n) {
            double a = 0.0;
            for (int i = 0; i < n; i++) a += x[i];
            return a;
        }";
        let module = compile(src);
        let instances = idioms::detect_module(&module);
        let red = instances
            .iter()
            .find(|i| i.kind == IdiomKind::Reduction)
            .expect("reduction detected")
            .clone();
        let f = module.function(&red.function).unwrap();
        let mut outer = red.clone();
        outer.kind = IdiomKind::Gemm; // wrong bindings: apply will refuse
        outer.blocks = f.block_ids().collect(); // claims everything
        outer
            .bindings
            .insert("loop[0].iterator".into(), red.value("iterator").unwrap());
        let xf = transform_instances(&module, vec![red, outer]);
        assert!(
            matches!(xf.outcomes[1].outcome, Outcome::Failed(_)),
            "outer pseudo-GEMM must fail: {:?}",
            xf.outcomes[1].outcome
        );
        assert!(
            xf.outcomes[0].outcome.is_replaced(),
            "contained reduction must be replaced, not shadowed by a failure: {:?}",
            xf.outcomes[0].outcome
        );
        // Every Shadowed edge, when present, points at a Replaced winner.
        for o in &xf.outcomes {
            if let Outcome::Shadowed { by } = o.outcome {
                assert!(xf.outcomes[by].outcome.is_replaced());
            }
        }
    }

    #[test]
    fn adjacent_idioms_are_all_replaced() {
        // Two back-to-back reductions in one function: disjoint regions,
        // both must be rewritten (block-id churn from the first excision
        // must not derail the second).
        let src = "double two(double* x, double* y, int n) {
            double a = 0.0;
            for (int i = 0; i < n; i++) a += x[i];
            double b = 1.0;
            for (int i = 0; i < n; i++) b = b * y[i];
            return a + b;
        }";
        let module = compile(src);
        let xf = transform_module(&module);
        let reds: Vec<_> = xf
            .outcomes
            .iter()
            .filter(|o| o.instance.kind == IdiomKind::Reduction)
            .collect();
        assert_eq!(reds.len(), 2, "both reductions detected");
        for o in &reds {
            assert!(o.outcome.is_replaced(), "got {:?}", o.outcome);
        }
        assert_eq!(xf.replaced(), 2);
        // Distinct uids for the generated device programs.
        let callees: std::collections::BTreeSet<String> = xf
            .outcomes
            .iter()
            .filter_map(|o| match &o.outcome {
                Outcome::Replaced(r) => Some(r.callee.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(callees.len(), 2, "fresh uid per replacement: {callees:?}");
    }

    #[test]
    fn overlap_resolution_is_deterministic() {
        // Two probes, two independent transform passes each: identical
        // outcome sequences, shadow edges included.
        let describe = |xf: &ModuleXform| -> Vec<String> {
            xf.outcomes
                .iter()
                .map(|o| match &o.outcome {
                    Outcome::Replaced(r) => format!("{:?}:replaced:{}", o.instance.kind, r.callee),
                    Outcome::Shadowed { by } => format!("{:?}:shadowed:{by}", o.instance.kind),
                    Outcome::Failed(e) => format!("{:?}:failed:{e}", o.instance.kind),
                })
                .collect()
        };
        // Same-loop overlap, straight from detection (both fail Unsound).
        let two = compile(
            "double two(double* x, double* y, int n) {
                double a = 0.0;
                double b = 0.0;
                for (int i = 0; i < n; i++) { a += x[i]; b += y[i]; }
                return a + b;
            }",
        );
        assert_eq!(
            describe(&transform_module(&two)),
            describe(&transform_module(&two))
        );
        // Nested overlap with a real shadow edge (GEMM + forged inner
        // dot-product reduction, as in the nested test above).
        let module = compile(GEMM_SRC);
        let pair = || {
            let gemm = idioms::detect_module(&module)
                .into_iter()
                .find(|i| i.kind == IdiomKind::Gemm)
                .unwrap();
            let f = module.function(&gemm.function).unwrap();
            let mut inner = gemm.clone();
            inner.kind = IdiomKind::Reduction;
            inner.anchor = gemm.value("dot.acc").unwrap();
            inner
                .bindings
                .insert("iterator".into(), gemm.value("loop[2].iterator").unwrap());
            assert!(inner.refresh_blocks(f));
            vec![inner, gemm]
        };
        let a = describe(&transform_instances(&module, pair()));
        let b = describe(&transform_instances(&module, pair()));
        assert!(
            a.iter().any(|s| s.contains(":shadowed:")),
            "the probe must actually exercise overlap resolution: {a:?}"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn failed_replacements_leave_no_orphan_functions() {
        // A strided reduction is detected but Unsupported; the committed
        // module must be byte-identical to the input (no half-generated
        // device program).
        let src = "double s(double* x, int n) {
            double a = 0.0;
            for (int i = 0; i < n; i += 3) a += x[i];
            return a;
        }";
        let module = compile(src);
        let xf = transform_module(&module);
        assert!(xf
            .outcomes
            .iter()
            .any(|o| matches!(o.outcome, Outcome::Failed(XformError::Unsupported(_)))));
        assert_eq!(xf.replaced(), 0);
        assert_eq!(
            ssair::printer::print_module(&xf.module),
            ssair::printer::print_module(&module),
            "no generated functions may leak from failed attempts"
        );
    }
}

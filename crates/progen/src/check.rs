//! The per-program oracle: runs the full pipeline on one generated (or
//! corpus) program and checks every guarantee the generator establishes
//! by construction — planted idioms are detected *and* replaced,
//! near-miss mutants are not reported, detection is not silently
//! truncated, and the transformed program is differentially equivalent
//! to the original under every input seed.

use crate::spec::{setup, Spec};
use idiomatch_core::{ValidationError, ValidationSummary};
use idioms::IdiomKind;
use ssair::{Module, Opcode, Type};

/// Input seeds every generated program is validated under (the suite's
/// canonical + randomized set).
pub const FUZZ_SEEDS: [u64; 3] = benchsuite::VALIDATION_SEEDS;

/// A deliberately broken transformation, injected *after* the real
/// replacement pass, to prove end-to-end that the differential validator
/// (and the shrinker feeding the corpus) catches miscompiles. Test-only
/// by construction: nothing outside tests and the fuzz binary's
/// `--canary` mode ever passes anything but [`Canary::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Canary {
    /// No tampering: the honest pipeline.
    None,
    /// Corrupts the `init` argument of the first offloaded reduction
    /// call (`lift_red_*`), the §6 miscompile class that never touches
    /// memory and is visible only through the entry return value.
    BreakReductionInit,
}

impl Canary {
    /// Applies the tamper to a transformed module. Returns `false` when
    /// the module contains no applicable target (e.g. nothing was
    /// replaced) — the check then proceeds untampered.
    pub fn tamper(self, m: &mut Module) -> bool {
        match self {
            Canary::None => false,
            Canary::BreakReductionInit => {
                for f in &mut m.functions {
                    let target = f.value_ids().find(|&vid| {
                        f.instr(vid)
                            .filter(|i| i.opcode == Opcode::Call)
                            .and_then(|i| i.callee.as_deref())
                            .is_some_and(|c| c.starts_with("lift_red_"))
                    });
                    if let Some(call) = target {
                        // args are [read bases.., begin, end, init, extras..]:
                        // the base count varies with the kernel arity, so
                        // locate `init` by skipping the leading pointer
                        // operands plus the two integer bounds.
                        let n_bases = f
                            .instr(call)
                            .expect("call instr")
                            .operands
                            .iter()
                            .take_while(|&&op| f.value(op).ty.is_pointer())
                            .count();
                        let bad = f.const_float(Type::F64, 12.5);
                        f.instr_mut(call).expect("call instr").operands[n_bases + 2] = bad;
                        return true;
                    }
                }
                false
            }
        }
    }
}

/// What a passing check measured.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Functions in the generated module (entry included).
    pub functions: usize,
    /// Planted idiom instances (the recall denominator).
    pub planted: usize,
    /// Near-miss functions checked for false positives.
    pub near_misses: usize,
    /// Total detected instances (planted + incidental).
    pub detected: usize,
    /// Applied replacements.
    pub replaced: usize,
    /// Total solver assignment steps.
    pub solve_steps: u64,
    /// Independent-iterations regions whose certificate was witnessed by
    /// the reversed-iteration oracle.
    pub reversal_checked: usize,
    /// The differential-validation summary.
    pub validation: ValidationSummary,
}

/// The first guarantee a program violated. Every variant names the
/// function so a shrunk reproducer stays meaningful.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The rendered program failed to compile (a generator bug).
    Compile(String),
    /// Detection hit a solver budget (undercounts would poison recall).
    Truncated {
        /// The function whose search was cut off.
        function: String,
    },
    /// The transformed module failed the structural IR verifier (a
    /// backend bug: the excision or a generated kernel is malformed).
    InvalidIr {
        /// The first verifier error.
        error: String,
    },
    /// An adversarial function was replaced *and* certified safe for
    /// parallel execution (the dependence analysis missed a same-object
    /// overlap, a non-affine subscript, or call-site aliasing).
    AdversaryCertified {
        /// The adversarial function.
        function: String,
        /// The certificate that wrongly admitted it.
        certificate: String,
    },
    /// A planted idiom was not detected (recall loss).
    MissedPlant {
        /// The planted function.
        function: String,
        /// The planted kind.
        kind: IdiomKind,
    },
    /// A planted idiom was detected but not replaced.
    NotReplaced {
        /// The planted function.
        function: String,
        /// The planted kind.
        kind: IdiomKind,
        /// The driver's outcome description.
        why: String,
    },
    /// A near-miss function was reported as its forbidden kind.
    FalsePositive {
        /// The near-miss function.
        function: String,
        /// The forbidden kind that was reported.
        kind: IdiomKind,
    },
    /// A region certified `IndependentIterations` diverged when its
    /// iterations were executed in reverse order — the certificate
    /// claimed a commutativity the program does not have.
    ReversalDiverged(ValidationError),
    /// The transformed program diverged from the original.
    Validation(ValidationError),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Compile(e) => write!(f, "generated program does not compile: {e}"),
            Failure::Truncated { function } => {
                write!(f, "detection truncated in {function}")
            }
            Failure::InvalidIr { error } => {
                write!(f, "transformed module failed IR verification: {error}")
            }
            Failure::AdversaryCertified {
                function,
                certificate,
            } => write!(
                f,
                "adversarial {function} was replaced with a parallel certificate: {certificate}"
            ),
            Failure::MissedPlant { function, kind } => {
                write!(f, "planted {kind:?} in {function} was not detected")
            }
            Failure::NotReplaced {
                function,
                kind,
                why,
            } => write!(f, "planted {kind:?} in {function} was not replaced: {why}"),
            Failure::FalsePositive { function, kind } => {
                write!(f, "near-miss {function} falsely reported as {kind:?}")
            }
            Failure::ReversalDiverged(e) => write!(
                f,
                "independent-iterations certificate failed the reversed-iteration oracle: {e}"
            ),
            Failure::Validation(e) => write!(f, "differential validation failed: {e}"),
        }
    }
}

/// Runs the pipeline and checks every guarantee for one spec.
///
/// # Errors
/// The first violated guarantee, as a [`Failure`].
pub fn check(spec: &Spec, canary: Canary) -> Result<Checked, Failure> {
    check_source(
        &spec.render(),
        &spec.module_name(),
        &spec.expected(),
        &spec.forbidden(),
        &spec.adversaries(),
        canary,
    )
}

/// [`check`] over already-rendered source + expectations: the shared
/// engine behind spec checking and corpus replay. The pipeline itself is
/// the [`idiomatch_core::compile`] stage chain (the canary tampers with
/// the transformed module between transform and validate); this function
/// layers the generator's guarantees on its artifacts.
pub(crate) fn check_source(
    source: &str,
    name: &str,
    expected: &[(String, IdiomKind)],
    forbidden: &[(String, IdiomKind)],
    adversaries: &[String],
    canary: Canary,
) -> Result<Checked, Failure> {
    let mut out = idiomatch_core::compile(source, name)
        .map_err(|e| Failure::Compile(e.to_string()))?
        .detect()
        .transform();
    canary.tamper(out.module_mut());
    if let Some(function) = out.incomplete_functions.first() {
        return Err(Failure::Truncated {
            function: function.clone(),
        });
    }
    // The transformed module must be structurally well-formed before any
    // semantic comparison (the verifier ran on the honest module, before
    // the canary's deliberate tampering).
    if let Some(error) = out.verify_errors.first() {
        return Err(Failure::InvalidIr {
            error: error.clone(),
        });
    }

    // Recall: every planted (function, kind) pair must be detected.
    for (function, kind) in expected {
        if !out
            .instances
            .iter()
            .any(|i| &i.function == function && i.kind == *kind)
        {
            return Err(Failure::MissedPlant {
                function: function.clone(),
                kind: *kind,
            });
        }
    }
    // Precision: no near-miss function may be reported as its kind.
    for (function, kind) in forbidden {
        if out
            .instances
            .iter()
            .any(|i| &i.function == function && i.kind == *kind)
        {
            return Err(Failure::FalsePositive {
                function: function.clone(),
                kind: *kind,
            });
        }
    }
    // Every planted instance must actually be rewritten, not just found.
    for (function, kind) in expected {
        let outcomes: Vec<&xform::InstanceOutcome> = out
            .xform
            .outcomes
            .iter()
            .filter(|o| &o.instance.function == function && o.instance.kind == *kind)
            .collect();
        if !outcomes.iter().any(|o| o.outcome.is_replaced()) {
            let why = outcomes
                .first()
                .map_or("instance vanished".to_owned(), |o| {
                    format!("{:?}", o.outcome)
                });
            return Err(Failure::NotReplaced {
                function: function.clone(),
                kind: *kind,
                why,
            });
        }
    }

    // Soundness: an adversary function may be detected, and may even be
    // refused-or-serially replaced, but a replacement carrying an
    // independent-iterations certificate means the dependence analysis
    // proved a parallelism that does not exist.
    for function in adversaries {
        for o in &out.xform.outcomes {
            let xform::Outcome::Replaced(rep) = &o.outcome else {
                continue;
            };
            if &o.instance.function == function
                && rep.certificate.safety == idioms::ParallelSafety::IndependentIterations
            {
                return Err(Failure::AdversaryCertified {
                    function: function.clone(),
                    certificate: rep.certificate.reason.clone(),
                });
            }
        }
    }

    // Every surviving independent-iterations certificate is witnessed
    // dynamically: the original program re-run with the certified loop
    // reversed must match the forward run bitwise. The forward runs are
    // the ones validation already made.
    let mut out = out.validate(Spec::ENTRY, setup, &FUZZ_SEEDS);
    let reversal = out.witness().map_err(Failure::ReversalDiverged)?;
    let validation = out.validation.clone().map_err(Failure::Validation)?;
    Ok(Checked {
        functions: out.module.functions.len(),
        planted: expected.len(),
        near_misses: forbidden.len(),
        detected: out.xform.outcomes.len(),
        replaced: out.xform.replaced(),
        solve_steps: out.solve_steps,
        reversal_checked: reversal.checked,
        validation,
    })
}

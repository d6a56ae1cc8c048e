//! # idiomatch-core — the end-to-end pipeline (paper Figure 1)
//!
//! Ties the workspace together into the workflow of the paper's Figure 1:
//! C source → optimized SSA IR (`minicc`) → constraint-based idiom
//! detection (`idl` + `solver` + `idioms`) → API selection (`hetero`) →
//! code replacement (`xform`) → linked, executable program (`interp`).
//!
//! The pipeline is one typed stage chain, each stage timed into one
//! [`StageTimes`]: [`compile`] → [`Compiled::detect`] →
//! [`Detected::transform`] (replace every instance, verify the IR) →
//! [`Transformed::validate`] (seeded differential execution, compared
//! bitwise) → [`Validated::witness`] (the reversed-iteration oracle).
//! [`validate_transform`] and [`check_reversal_oracle`] are the last two
//! stages' standalone forms. [`analyze`] adds profiling and modeling to
//! compile + detect for the paper's tables and figures (crates/bench).

use hetero::{Platform, Workload};
use idioms::{IdiomInstance, IdiomKind};
use interp::{compile_module, Allocation, CompiledModule, Memory, ModuleCode, Value, Vm};
use ssair::analysis::ModuleAnalyses;
use ssair::{Module, Type};
use std::collections::BTreeMap;
use std::time::Instant;

/// A benchmark input generator: allocates the program's arrays for one
/// input seed and returns the entry-point arguments (the signature of
/// [`benchsuite::Benchmark::setup`]). The validation entry points accept
/// any `Fn(&mut Memory, u64) -> Vec<Value>` closure — generated programs
/// (`progen`) capture their input shape in the closure — and this alias
/// remains the plain-`fn` form the static benchmark table uses.
pub type SetupFn = fn(&mut Memory, u64) -> Vec<Value>;

/// Everything measured about one benchmark.
pub struct Analysis {
    /// Benchmark name.
    pub name: &'static str,
    /// Idiom instances per function.
    pub instances: Vec<IdiomInstance>,
    /// Instance counts per Table-1 class label.
    pub by_class: BTreeMap<&'static str, usize>,
    /// Fraction of the sequential dynamic cost inside detected idiom
    /// regions (Figure 17).
    pub coverage: f64,
    /// Modeled sequential time of the full program (milliseconds),
    /// scaled to the paper's input class.
    pub sequential_ms: f64,
    /// Modeled sequential time of the *idiom regions* only.
    pub idiom_ms: f64,
    /// Aggregate device workload of the idiom regions.
    pub workload: Workload,
    /// Measured (unscaled) per-run counts of the idiom regions, straight
    /// from the profiling run — the input to profile-guided offload
    /// decisions ([`hetero::best_configuration_profiled`]).
    pub profile: hetero::RegionProfile,
    /// The dominant idiom kind by dynamic cost (drives API selection).
    pub dominant_kind: Option<IdiomKind>,
    /// Frontend wall-clock seconds (Table 2, "without IDL").
    pub compile_s: f64,
    /// Detection wall-clock seconds (Table 2 adds this on top).
    pub detect_s: f64,
    /// Whether the paper treats this benchmark as idiom-dominated.
    pub covered: bool,
    /// Whether the lazy-copy optimization applies (Figure 18 red bars).
    pub lazy: bool,
    /// Whether the extracted kernels are expressible in Halide (pure
    /// arithmetic without calls or selects — §5.2: "stencils involving
    /// control flow in their computations are not easily expressible").
    pub halide_ok: bool,
    /// Polly baseline counts (reductions, stencils).
    pub polly: (usize, usize),
    /// ICC baseline reduction count.
    pub icc: usize,
}

/// Runs the full detection + profiling + modeling pipeline on one
/// benchmark.
///
/// # Panics
/// Panics if the bundled benchmark fails to compile or execute — that is
/// a bug in the suite, not an input condition.
#[must_use]
pub fn analyze(b: &benchsuite::Benchmark) -> Analysis {
    let Detected {
        compiled: Compiled { module, times },
        instances,
        ..
    } = compile(b.source, b.name)
        .expect("bundled benchmark compiles")
        .detect();

    let mut by_class: BTreeMap<&'static str, usize> = BTreeMap::new();
    for inst in &instances {
        *by_class.entry(inst.kind.class_label()).or_default() += 1;
    }

    // Profile one full run of the canonical workload. The VM keeps dense
    // per-function counters and maps them back to `ValueId`s.
    let code = compile_module(&module);
    let mut vm = Vm::new(&code);
    vm.set_profiling(true);
    let args = (b.setup)(&mut vm.mem, benchsuite::CANONICAL_SEED);
    vm.run(b.entry, &args).expect("bundled benchmark executes");
    let profile = vm.profile();

    let mut total_cost = 0.0;
    for f in &module.functions {
        total_cost += profile.total_cost(f);
    }
    let mut idiom_cost = 0.0;
    let mut flops = 0.0;
    let mut bytes = 0.0;
    let mut costs_by_kind: BTreeMap<IdiomKind, f64> = BTreeMap::new();
    for inst in &instances {
        let f = module.function(&inst.function).expect("function exists");
        let in_region = |v: ssair::ValueId| {
            inst.blocks
                .iter()
                .any(|&blk| f.block(blk).instrs.contains(&v))
        };
        let c = profile.region_cost(f, in_region);
        idiom_cost += c;
        *costs_by_kind.entry(inst.kind).or_default() += c;
        flops += profile.region_flops(f, in_region);
        bytes += profile.region_bytes(f, in_region);
    }
    let coverage = if total_cost > 0.0 {
        idiom_cost / total_cost
    } else {
        0.0
    };
    let dominant_kind = costs_by_kind
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(&k, _)| k);

    let scaled = |x: f64| x * b.scale;
    let mut workload = Workload {
        flops: scaled(flops),
        bytes: scaled(bytes),
        // Footprint per transfer: the touched bytes of one kernel launch
        // (streaming idioms have ~unit reuse).
        transfer_bytes: scaled(bytes) / b.invocations.max(1.0),
        launches: b.invocations,
    };
    if dominant_kind == Some(IdiomKind::Gemm) {
        // GEMM is the one idiom with O(n) reuse per element: the raw
        // per-load byte count vastly overstates DRAM traffic and the
        // transferred footprint. Model the footprint as the three n×n
        // matrices and the DRAM traffic as a tiled multiple of it.
        let n2 = (workload.flops / 2.0).powf(2.0 / 3.0); // ≈ n²
        workload.transfer_bytes = 3.0 * n2 * 8.0;
        workload.bytes = workload.transfer_bytes * 16.0;
    }

    // Halide expressibility: every stencil/histogram kernel must be free
    // of calls and selects.
    let mut halide_ok = true;
    for inst in &instances {
        let (out_var, killers): (&str, Vec<ssair::ValueId>) = match inst.kind {
            IdiomKind::Stencil1D | IdiomKind::Stencil2D => {
                ("write.value", inst.family("read_value"))
            }
            IdiomKind::Histogram => {
                let mut ks = inst.family("read_value");
                if let Some(old) = inst.value("old_value") {
                    ks.push(old);
                }
                ("new_value", ks)
            }
            _ => continue,
        };
        let f = module.function(&inst.function).expect("function exists");
        let Some(out) = inst.value(out_var) else {
            continue;
        };
        let pure_arith = |out, killers: &[ssair::ValueId]| {
            ssair::analysis::kernel_slice(f, out, killers).is_some_and(|sl| {
                sl.iter().all(|&v| {
                    !matches!(
                        f.opcode(v),
                        Some(ssair::Opcode::Call | ssair::Opcode::Select)
                    )
                })
            })
        };
        halide_ok &= pure_arith(out, &killers);
        // Histograms additionally need an expressible index kernel.
        if let (IdiomKind::Histogram, Some(idx)) = (inst.kind, inst.value("bin_idx")) {
            halide_ok &= pure_arith(idx, &inst.family("read_value"));
        }
    }

    let mut polly = (0usize, 0usize);
    let mut icc = 0usize;
    for f in &module.functions {
        let p = baselines::polly_detect(f);
        polly.0 += p.reductions();
        polly.1 += p.stencils();
        icc += baselines::icc_detect(f).reductions();
    }

    Analysis {
        name: b.name,
        instances,
        by_class,
        coverage,
        sequential_ms: hetero::sequential_time_ms(scaled(total_cost)),
        idiom_ms: hetero::sequential_time_ms(scaled(idiom_cost)),
        workload,
        profile: hetero::RegionProfile {
            cost_units: idiom_cost,
            total_cost_units: total_cost,
            flops,
            bytes,
            launches: b.invocations,
        },
        dominant_kind,
        compile_s: times.compile_s,
        detect_s: times.detect_s,
        covered: b.covered,
        lazy: b.lazy,
        halide_ok,
        polly,
        icc,
    }
}

/// The weakest parallel-safety class among `a`'s instances of the
/// dominant idiom kind — the certificate the whole offloaded region must
/// honour. Defaults to serial when no instance carries a certificate for
/// the kind (nothing is provable about an unseen region).
#[must_use]
pub fn region_safety(a: &Analysis) -> idioms::ParallelSafety {
    let Some(kind) = a.dominant_kind else {
        return idioms::ParallelSafety::Serial;
    };
    a.instances
        .iter()
        .filter(|i| i.kind == kind)
        .map(|i| i.certificate.safety)
        .max() // ParallelSafety orders weakest-last: Serial > ReductionOnly
        .unwrap_or(idioms::ParallelSafety::Serial)
}

/// End-to-end speedup (Figure 18) on `platform`: idiom regions run on the
/// modeled device under the best applicable API, the rest stays
/// sequential (Amdahl). The region's parallel-safety certificate is a
/// hard gate — a serial-certified region is never offered a parallel
/// host, no matter the modeled speedup.
#[must_use]
pub fn speedup_on(a: &Analysis, platform: Platform, lazy_copy: bool) -> Option<(hetero::Api, f64)> {
    let kind = a.dominant_kind?;
    let safety = region_safety(a);
    let (api, kernel_ms) = hetero::Api::AUTO
        .iter()
        .filter(|&&api| a.halide_ok || api != hetero::Api::Halide)
        .filter_map(|&api| {
            hetero::kernel_time_ms_certified(api, platform, kind, &a.workload, lazy_copy, safety)
                .map(|t| (api, t))
        })
        .min_by(|x, y| x.1.total_cmp(&y.1))?;
    let rest_ms = a.sequential_ms - a.idiom_ms;
    let total = rest_ms + kernel_ms;
    Some((api, a.sequential_ms / total))
}

/// Figure 19 reference points: the handwritten OpenMP (CPU) and OpenCL
/// (GPU) implementations. For EP, IS, MG and tpacf the references
/// restructure and parallelize the entire application ("beyond the domain
/// of automation", §8.3), so they accelerate everything, not just the
/// idiom regions.
#[must_use]
pub fn reference_speedup(a: &Analysis, platform: Platform) -> Option<f64> {
    let api = match platform {
        Platform::Cpu => hetero::Api::OpenMpRef,
        Platform::Gpu => hetero::Api::OpenClRef,
        Platform::IGpu => return None,
    };
    let kind = a.dominant_kind?;
    let whole_app = matches!(a.name, "EP" | "IS" | "MG" | "tpacf");
    let (accel_ms_base, rest_ms) = if whole_app {
        // Parallelize everything; approximate the whole program as one
        // region with the full sequential workload.
        let w = Workload {
            flops: a.workload.flops / a.coverage.max(0.05),
            bytes: a.workload.bytes / a.coverage.max(0.05),
            ..a.workload
        };
        (hetero::kernel_time_ms(api, platform, kind, &w, true)?, 0.0)
    } else {
        (
            hetero::kernel_time_ms(api, platform, kind, &a.workload, true)?,
            a.sequential_ms - a.idiom_ms,
        )
    };
    Some(a.sequential_ms / (rest_ms + accel_ms_base))
}

// ---------------------------------------------------------------------
// Differential validation (paper §6: "the transformed program computes
// the same results").
// ---------------------------------------------------------------------

/// Why a transformed program failed differential validation. Every
/// variant pinpoints *where* the two runs diverged; there is no
/// tolerance anywhere — float payloads are compared bitwise, and a
/// memory-size mismatch is itself a failure rather than a reason to
/// truncate the comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// Validation was requested with an empty seed set: nothing was
    /// executed, so an `Ok` would be vacuous evidence of equivalence.
    NoSeeds,
    /// One of the two runs failed to execute (e.g. a type-confused or
    /// out-of-bounds API call introduced by a bad replacement).
    Exec {
        /// Which run failed: `"original"` or `"transformed"`.
        which: &'static str,
        /// The input seed of the failing run.
        seed: u64,
        /// The interpreter's error message.
        message: String,
    },
    /// The two runs ended with different memory sizes.
    MemorySize {
        /// The input seed.
        seed: u64,
        /// Final memory size of the original run.
        original: usize,
        /// Final memory size of the transformed run.
        transformed: usize,
    },
    /// The entry-point return values differ (floats compared bitwise).
    ReturnValue {
        /// The input seed.
        seed: u64,
        /// Return value of the original run.
        original: Value,
        /// Return value of the transformed run.
        transformed: Value,
    },
    /// One element of one program array differs (floats compared
    /// bitwise).
    Element {
        /// The input seed.
        seed: u64,
        /// Index of the diverging array in setup allocation order.
        array: usize,
        /// The diverging array's allocation record.
        allocation: Allocation,
        /// Element index within the array.
        index: usize,
        /// Element value in the original run.
        original: Value,
        /// Element value in the transformed run.
        transformed: Value,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::NoSeeds => {
                write!(f, "validation ran under zero input seeds (vacuous)")
            }
            ValidationError::Exec {
                which,
                seed,
                message,
            } => write!(f, "{which} run failed under seed {seed}: {message}"),
            ValidationError::MemorySize {
                seed,
                original,
                transformed,
            } => write!(
                f,
                "memory size diverged under seed {seed}: original {original} bytes, transformed {transformed} bytes"
            ),
            ValidationError::ReturnValue {
                seed,
                original,
                transformed,
            } => write!(
                f,
                "return value diverged under seed {seed}: original {original:?}, transformed {transformed:?}"
            ),
            ValidationError::Element {
                seed,
                array,
                allocation,
                index,
                original,
                transformed,
            } => write!(
                f,
                "array #{array} ({:?}[{}] at base {}) diverged at index {index} under seed {seed}: original {original:?}, transformed {transformed:?}",
                allocation.elem, allocation.count, allocation.base
            ),
        }
    }
}

/// What a passing validation actually covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationSummary {
    /// Number of input seeds executed.
    pub seeds: usize,
    /// Program arrays compared per seed.
    pub arrays: usize,
    /// Total elements compared across all seeds.
    pub elements: usize,
}

/// Bitwise value equality: floats by bit pattern (NaN-safe, no epsilon),
/// everything else exactly.
fn bitwise_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    }
}

/// Loads element `i` of a recorded allocation with its own type.
fn load_elem(mem: &Memory, al: &Allocation, i: usize) -> Result<Value, String> {
    let addr = al.base + (al.elem.size_bytes() * i) as u64;
    match al.elem {
        Type::F64 => mem.load_f64(addr).map(Value::F),
        Type::F32 => mem.load_f32(addr).map(Value::F),
        Type::I64 => mem.load_i64(addr).map(Value::I),
        Type::I32 => mem.load_i32(addr).map(Value::I),
        Type::I1 => mem.load_i8(addr).map(Value::I),
        t if t.is_pointer() => mem.load_i64(addr).map(|x| Value::P(x as u64)),
        _ => Err("void allocation".into()),
    }
}

/// One input seed's post-setup state: the memory image the setup built
/// and the entry arguments it returned. Every run under the seed starts
/// from a clone of the image, so the setup runs once per module and seed.
struct Input {
    seed: u64,
    image: Memory,
    args: Vec<Value>,
}

impl Input {
    fn new(setup: &impl Fn(&mut Memory, u64) -> Vec<Value>, seed: u64) -> Input {
        let mut image = Memory::new();
        let args = setup(&mut image, seed);
        Input { seed, image, args }
    }
}

/// One finished run of a program's entry point under one input seed.
struct Run {
    seed: u64,
    ret: Value,
    /// The final memory.
    mem: Memory,
    /// Allocations the setup made: the program's declared arrays.
    /// Everything allocated later is runtime-internal.
    setup_allocs: usize,
}

/// One run of `entry` in `code` from `input`: a fresh VM with the vendor
/// hosts registered, starting from a clone of the input's image.
fn run_program(code: &CompiledModule<'_>, entry: &str, input: &Input) -> Result<Run, String> {
    let mut vm = Vm::new(code);
    hetero::hosts::register_all(&mut vm);
    vm.mem = input.image.clone();
    let ret = vm.run(entry, &input.args).map_err(|e| e.to_string())?;
    Ok(Run {
        seed: input.seed,
        ret,
        mem: vm.mem,
        setup_allocs: input.image.allocations().len(),
    })
}

/// What the original module's side of the comparisons keeps between
/// stages: its code, detached from the module, and the inputs and runs
/// made so far, one per seed in seed order.
#[derive(Default)]
struct ForwardState {
    code: Option<ModuleCode>,
    inputs: Vec<Input>,
    runs: Vec<Run>,
}

/// The original module's side of every comparison: each seed's input and
/// the original's run from it, each made at most once, so validation and
/// every reversed variant of the witness compare against the same runs.
/// A seed no caller reached yet is set up and run (and the module
/// compiled) on first use.
struct Forward<'m> {
    module: &'m Module,
    code: Option<CompiledModule<'m>>,
    inputs: Vec<Input>,
    runs: Vec<Run>,
}

impl<'m> Forward<'m> {
    /// Resumes from `state`, which holds what an earlier stage made for
    /// `module`.
    fn new(module: &'m Module, state: ForwardState) -> Forward<'m> {
        Forward {
            module,
            code: state.code.and_then(|c| c.attach(module)),
            inputs: state.inputs,
            runs: state.runs,
        }
    }

    fn into_state(self) -> ForwardState {
        ForwardState {
            code: self.code.map(CompiledModule::detach),
            inputs: self.inputs,
            runs: self.runs,
        }
    }

    /// The original module's code, compiled on first use.
    fn code(&mut self) -> &mut CompiledModule<'m> {
        let module = self.module;
        self.code.get_or_insert_with(|| compile_module(module))
    }

    /// Makes the input and the original's run under `seeds[k]`, where
    /// `seeds[..k]` already have theirs.
    fn get(
        &mut self,
        k: usize,
        seed: u64,
        entry: &str,
        setup: &impl Fn(&mut Memory, u64) -> Vec<Value>,
    ) -> Result<(), ValidationError> {
        if k == self.inputs.len() {
            self.inputs.push(Input::new(setup, seed));
        }
        if k == self.runs.len() {
            let input = &self.inputs[k];
            let module = self.module;
            let code = self.code.get_or_insert_with(|| compile_module(module));
            let run = run_program(code, entry, input).map_err(|message| ValidationError::Exec {
                which: "original",
                seed,
                message,
            })?;
            self.runs.push(run);
        }
        debug_assert_eq!(
            self.runs[k].seed, seed,
            "forward runs follow the seed order"
        );
        Ok(())
    }
}

/// The byte range of a setup allocation whose every element a typed load
/// reads without error, or `None` when some load could fail (a void
/// element type, or a range out of bounds).
fn loadable_bytes(al: &Allocation, size: usize) -> Option<std::ops::Range<usize>> {
    let start = usize::try_from(al.base).ok().filter(|&b| b > 0)?;
    let end = start.checked_add(al.size_bytes())?;
    (al.elem != Type::Void && end <= size).then_some(start..end)
}

/// Compares one seed's transformed run against the original's: (1) the
/// entry return value, (2) the final memory size, and (3) every element
/// of every array the setup allocated, typed and bitwise. Returns how
/// many elements it compared. An array whose bytes are equal in both
/// memories holds equal elements, so only an array whose bytes differ
/// (or that a load could fail on) is walked element by element, which
/// finds the typed error.
fn compare_runs(o: &Run, t: &Run) -> Result<usize, ValidationError> {
    let seed = o.seed;
    debug_assert_eq!(o.setup_allocs, t.setup_allocs, "setup is deterministic");
    if !bitwise_eq(o.ret, t.ret) {
        return Err(ValidationError::ReturnValue {
            seed,
            original: o.ret,
            transformed: t.ret,
        });
    }
    if o.mem.size() != t.mem.size() {
        return Err(ValidationError::MemorySize {
            seed,
            original: o.mem.size(),
            transformed: t.mem.size(),
        });
    }
    let mut elements = 0;
    for (array, al) in o.mem.allocations()[..o.setup_allocs].iter().enumerate() {
        if let Some(range) = loadable_bytes(al, o.mem.size()) {
            if o.mem.bytes()[range.clone()] == t.mem.bytes()[range] {
                elements += al.count;
                continue;
            }
        }
        for index in 0..al.count {
            let exec = |which, message| ValidationError::Exec {
                which,
                seed,
                message,
            };
            let vo = load_elem(&o.mem, al, index).map_err(|e| exec("original", e))?;
            let vt = load_elem(&t.mem, al, index).map_err(|e| exec("transformed", e))?;
            elements += 1;
            if !bitwise_eq(vo, vt) {
                return Err(ValidationError::Element {
                    seed,
                    array,
                    allocation: al.clone(),
                    index,
                    original: vo,
                    transformed: vt,
                });
            }
        }
    }
    Ok(elements)
}

/// Differential validation of `transformed` against `original`: runs
/// `entry` on both modules under every seed in `seeds` and compares the
/// runs seed by seed: return values, memory sizes and every element of
/// the arrays the setup allocated, bitwise.
///
/// `setup` runs once per seed, and both modules' runs start from a clone
/// of the memory it built, so it must be deterministic in its seed (the
/// chain and [`check_reversal_oracle`] each call it again).
pub fn validate_transform(
    original: &Module,
    transformed: &Module,
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) -> Result<ValidationSummary, ValidationError> {
    let mut forward = Forward::new(original, ForwardState::default());
    validate_against(&mut forward, transformed, entry, &setup, seeds)
}

/// The seed loop of [`validate_transform`] against `transformed`'s
/// whole-module code.
fn validate_against(
    forward: &mut Forward<'_>,
    transformed: &Module,
    entry: &str,
    setup: &impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) -> Result<ValidationSummary, ValidationError> {
    let code = compile_module(transformed);
    compare_seeds(forward, entry, setup, seeds, |fw, k| {
        run_program(&code, entry, &fw.inputs[k])
    })
}

/// The seed loop shared by validation and the witness: per seed, the
/// original's run (made on first use), then the other side's run from
/// the same input (`other`, given the seed's index), then
/// [`compare_runs`]. An empty seed set is an error, not a vacuous pass.
fn compare_seeds<'m>(
    forward: &mut Forward<'m>,
    entry: &str,
    setup: &impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
    mut other: impl FnMut(&mut Forward<'m>, usize) -> Result<Run, String>,
) -> Result<ValidationSummary, ValidationError> {
    if seeds.is_empty() {
        return Err(ValidationError::NoSeeds);
    }
    let mut arrays = 0;
    let mut elements = 0;
    for (k, &seed) in seeds.iter().enumerate() {
        forward.get(k, seed, entry, setup)?;
        let t = other(forward, k).map_err(|message| ValidationError::Exec {
            which: "transformed",
            seed,
            message,
        })?;
        let o = &forward.runs[k];
        elements += compare_runs(o, &t)?;
        arrays = o.setup_allocs;
    }
    Ok(ValidationSummary {
        seeds: seeds.len(),
        arrays,
        elements,
    })
}

/// What the reversed-iteration oracle covered for one module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReversalOracle {
    /// Regions whose reversed run compared bitwise-equal.
    pub checked: usize,
    /// Regions the loop rewriter refused, with the reason — a coverage
    /// gap, never a verdict.
    pub skipped: Vec<(String, String)>,
}

/// Dynamically witnesses `IndependentIterations` certificates: for every
/// instance whose region still classifies as independent under
/// module-wide call-site alias facts (the same refinement the transform
/// driver applies), the *original* module is re-run with that loop's
/// iterations reversed ([`xform::reverse_loop`]) and the final machine
/// state compared bitwise against the forward run. Independent
/// iterations commute exactly — even in floating point — so any
/// divergence convicts the certificate.
///
/// Regions certified `ReductionOnly` or `Serial` are out of scope (their
/// iterations do not claim to commute), as are loop shapes the rewriter
/// refuses; both are reported, not failed. The module is compiled once;
/// a reversed variant compiles only its one function and runs with that
/// code swapped in ([`CompiledModule::with_function`]). `setup` runs once
/// per seed and must be deterministic in it: every run under the seed
/// starts from a clone of the memory it built. [`Validated::witness`]
/// runs the same check against the forward runs validation already made,
/// with the analyses detection and transform already built.
///
/// # Errors
/// The first divergence or execution failure, as a [`ValidationError`].
pub fn check_reversal_oracle(
    module: &Module,
    instances: &[IdiomInstance],
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) -> Result<ReversalOracle, ValidationError> {
    let mut forward = Forward::new(module, ForwardState::default());
    let analyses = ModuleAnalyses::lazy(module);
    let facts = analysis::ParamAliasFacts::of_module(module);
    witness(
        &mut forward,
        instances,
        &analyses,
        &facts,
        entry,
        &setup,
        seeds,
    )
}

/// The witness loop of [`check_reversal_oracle`] over `forward.module`:
/// each forward run is made at most once per call, so a witnessed region
/// costs only its reversed function's compile and its variant's runs.
fn witness(
    forward: &mut Forward<'_>,
    instances: &[IdiomInstance],
    analyses: &ModuleAnalyses,
    facts: &analysis::ParamAliasFacts,
    entry: &str,
    setup: &impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) -> Result<ReversalOracle, ValidationError> {
    let module = forward.module;
    let mut oracle = ReversalOracle::default();
    for inst in instances {
        let Some(iv) = inst.value(inst.kind.outer_iterator_var()) else {
            continue;
        };
        let Some(idx) = module
            .functions
            .iter()
            .position(|f| f.name == inst.function)
        else {
            continue;
        };
        let f = &module.functions[idx];
        let (an, map) = analyses.get(idx, f);
        let cert = analysis::classify_region(f, an, map, &inst.blocks, iv, Some(facts));
        if cert.safety != idioms::ParallelSafety::IndependentIterations {
            continue;
        }
        // `classify_region` certifies only an induction variable's loop.
        let Some(info) = map.iv(iv) else {
            continue;
        };
        let mut reversed = f.clone();
        if let Err(reason) = xform::reverse_loop(&mut reversed, info, &an.dom) {
            oracle.skipped.push((inst.function.clone(), reason));
            continue;
        }
        let mut code = forward
            .code()
            .compile_function(&reversed)
            .expect("the reversed function keeps its name");
        compare_seeds(forward, entry, setup, seeds, |fw, k| {
            let input = &fw.inputs[k];
            let original = fw.code.as_mut().expect("compiled above");
            original.with_function(&mut code, |c| run_program(c, entry, input))
        })?;
        oracle.checked += 1;
    }
    Ok(oracle)
}

// The staged pipeline. Each stage consumes the artifact of the stage
// before it and dereferences to it, exposing every earlier result.

/// Wall-clock seconds of each pipeline stage (zero until it runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// minicc frontend (parse, lower, optimize, verify).
    pub compile_s: f64,
    /// Idiom detection over every function.
    pub detect_s: f64,
    /// Whole-module transformation (`xform::transform_instances`).
    pub transform_s: f64,
    /// Structural IR verification of the transformed module.
    pub verify_s: f64,
    /// Multi-seed differential validation.
    pub validate_s: f64,
    /// The reversed-iteration witness.
    pub witness_s: f64,
}

/// Stage 1: the compiled (optimized, verified) original module.
#[derive(Debug)]
pub struct Compiled {
    /// The original module.
    pub module: Module,
    /// Stage wall times, filled in as the chain advances.
    pub times: StageTimes,
}

/// Compiles `source` with `minicc`: the first stage of the pipeline.
///
/// # Errors
/// The frontend error when `source` does not compile; every later stage
/// reports through its artifact instead of failing.
pub fn compile(source: &str, name: &str) -> Result<Compiled, minicc::CompileError> {
    let mut times = StageTimes::default();
    let t = Instant::now();
    let module = minicc::compile(source, name)?;
    times.compile_s = t.elapsed().as_secs_f64();
    Ok(Compiled { module, times })
}

impl Compiled {
    /// Stage 2: detects every idiom in every function under the default
    /// solver budgets, recording truncation instead of hiding it.
    #[must_use]
    pub fn detect(mut self) -> Detected {
        let opts = idioms::DetectOptions::default();
        let t = Instant::now();
        let (detections, analyses): (Vec<_>, Vec<_>) = self
            .module
            .functions
            .iter()
            .map(|f| {
                let (d, an, map) = idioms::detect_with_analyses(f, &opts);
                (d, (an, map))
            })
            .unzip();
        self.times.detect_s = t.elapsed().as_secs_f64();
        let incomplete_functions = self
            .module
            .functions
            .iter()
            .zip(&detections)
            .filter(|(_, d)| !d.complete)
            .map(|(f, _)| f.name.clone())
            .collect();
        Detected {
            analyses: analyses.into_iter().collect(),
            solve_steps: detections.iter().map(|d| d.steps).sum(),
            pruned_pairs: detections.iter().map(|d| d.pruned_pairs).sum(),
            instances: detections.into_iter().flat_map(|d| d.instances).collect(),
            incomplete_functions,
            compiled: self,
        }
    }
}

/// Stage 2: the detected idiom instances of a [`Compiled`] module.
#[derive(Debug)]
pub struct Detected {
    compiled: Compiled,
    /// Every detected idiom instance, in module order.
    pub instances: Vec<IdiomInstance>,
    /// Functions whose search hit a solver budget (empty = complete).
    pub incomplete_functions: Vec<String>,
    /// Total solver assignment steps across all functions and idioms
    /// (skeleton prepass included).
    pub solve_steps: u64,
    /// Idiom×function pairs the fingerprint prepass proved matchless
    /// (skipped with zero solver steps).
    pub pruned_pairs: u64,
    /// The analyses detection built for each original function, which
    /// transform and the witness read again.
    analyses: ModuleAnalyses,
}

impl std::ops::Deref for Detected {
    type Target = Compiled;
    fn deref(&self) -> &Compiled {
        &self.compiled
    }
}

impl Detected {
    /// Stage 3: replaces every non-overlapping instance
    /// ([`xform::transform_instances`]) and verifies the transformed
    /// module's IR. Transform plans on detection's analyses of every
    /// function no replacement has rewritten yet.
    #[must_use]
    pub fn transform(mut self) -> Transformed {
        let t = Instant::now();
        let facts = analysis::ParamAliasFacts::of_module(&self.module);
        let xform = xform::transform_instances_with(
            &self.module,
            self.instances.clone(),
            &facts,
            &self.analyses,
        );
        self.compiled.times.transform_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let verify_errors = ssair::verify::verify_module(&xform.module)
            .err()
            .map(|es| es.iter().map(ToString::to_string).collect())
            .unwrap_or_default();
        self.compiled.times.verify_s = t.elapsed().as_secs_f64();
        Transformed {
            detected: self,
            xform,
            verify_errors,
            facts,
        }
    }
}

/// Stage 3: the transformed module of a [`Detected`] one.
#[derive(Debug)]
pub struct Transformed {
    detected: Detected,
    /// The transformation result: transformed module plus per-instance
    /// replaced/shadowed/failed records.
    pub xform: xform::ModuleXform,
    /// Structural IR errors of the honest transformed module
    /// (`ssair::verify::verify_module`, generated device programs and
    /// every call to them included).
    /// Always empty for a correct backend.
    pub verify_errors: Vec<String>,
    /// The original module's call-site alias facts, which transform
    /// refined its certificates with and the witness reads again.
    facts: analysis::ParamAliasFacts,
}

impl std::ops::Deref for Transformed {
    type Target = Detected;
    fn deref(&self) -> &Detected {
        &self.detected
    }
}

impl Transformed {
    /// The transformed module, for fault injection between
    /// [`Detected::transform`] and [`Transformed::validate`]: the
    /// verifier has already judged the honest module, so only validation
    /// sees the damage. `progen`'s canary proves the validator this way.
    pub fn module_mut(&mut self) -> &mut Module {
        &mut self.xform.module
    }

    /// Stage 4: differential validation of the transformed module
    /// against the original under every seed ([`validate_transform`]).
    /// It runs even when nothing was replaced (then checking execution
    /// determinism). Each seed's post-setup memory and the original's
    /// runs are kept for [`Validated::witness`].
    pub fn validate<'a, S: Fn(&mut Memory, u64) -> Vec<Value>>(
        mut self,
        entry: &'a str,
        setup: S,
        seeds: &'a [u64],
    ) -> Validated<'a, S> {
        let t = Instant::now();
        let mut forward = Forward::new(&self.module, ForwardState::default());
        let validation = validate_against(&mut forward, &self.xform.module, entry, &setup, seeds);
        let forward = forward.into_state();
        self.detected.compiled.times.validate_s = t.elapsed().as_secs_f64();
        Validated {
            transformed: self,
            validation,
            forward,
            entry,
            setup,
            seeds,
        }
    }
}

/// Stage 4: the validation verdict of a [`Transformed`] module.
pub struct Validated<'a, S> {
    transformed: Transformed,
    /// The differential-validation verdict over all seeds.
    pub validation: Result<ValidationSummary, ValidationError>,
    forward: ForwardState,
    entry: &'a str,
    setup: S,
    seeds: &'a [u64],
}

impl<S> std::ops::Deref for Validated<'_, S> {
    type Target = Transformed;
    fn deref(&self) -> &Transformed {
        &self.transformed
    }
}

impl<S: Fn(&mut Memory, u64) -> Vec<Value>> Validated<'_, S> {
    /// Stage 5: the reversed-iteration witness ([`check_reversal_oracle`])
    /// over the original module and its detected instances. It compares
    /// against the forward runs validation made, starts every reversed
    /// run from the seed's memory image validation set up, and reads the
    /// analyses detection built and the alias facts transform computed,
    /// so it builds none of them again.
    ///
    /// # Errors
    /// As [`check_reversal_oracle`].
    pub fn witness(&mut self) -> Result<ReversalOracle, ValidationError> {
        let t = Instant::now();
        let state = std::mem::take(&mut self.forward);
        let mut forward = Forward::new(&self.transformed.module, state);
        let oracle = witness(
            &mut forward,
            &self.transformed.instances,
            &self.transformed.detected.analyses,
            &self.transformed.facts,
            self.entry,
            &self.setup,
            self.seeds,
        );
        self.forward = forward.into_state();
        self.transformed.detected.compiled.times.witness_s = t.elapsed().as_secs_f64();
        oracle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssair::analysis::BuildCounts;

    #[test]
    fn analyze_cg_finds_sparse_ops_and_high_coverage() {
        let b = benchsuite::all()
            .into_iter()
            .find(|b| b.name == "CG")
            .unwrap();
        let a = analyze(&b);
        assert_eq!(a.by_class.get("Sparse Matrix Op."), Some(&2));
        assert_eq!(a.by_class.get("Scalar Reduction"), Some(&4));
        assert!(a.coverage > 0.5, "coverage {}", a.coverage);
        assert_eq!(a.dominant_kind, Some(IdiomKind::Spmv));
        let (api, speed) = speedup_on(&a, Platform::Gpu, true).unwrap();
        assert_eq!(api, hetero::Api::CuSparse);
        assert!(speed > 2.0, "CG GPU speedup {speed}");
    }

    #[test]
    fn uncovered_benchmarks_gain_little() {
        let b = benchsuite::all()
            .into_iter()
            .find(|b| b.name == "BT")
            .unwrap();
        let a = analyze(&b);
        assert!(a.coverage < 0.5);
        if let Some((_, s)) = speedup_on(&a, Platform::Gpu, true) {
            assert!(s < 2.0, "Amdahl caps BT at {s}");
        }
    }

    /// The whole-module chain over one bundled benchmark, returning the
    /// replacement of `kind` after asserting that everything validated.
    fn replaced_in_benchmark(name: &str, kind: IdiomKind) -> xform::Replacement {
        let b = benchsuite::all()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap();
        let v = compile(b.source, b.name)
            .unwrap()
            .detect()
            .transform()
            .validate(b.entry, b.setup, &benchsuite::VALIDATION_SEEDS);
        assert!(v.verify_errors.is_empty(), "{:?}", v.verify_errors);
        v.validation.as_ref().expect("replacement validates");
        v.xform
            .outcomes
            .iter()
            .find_map(|o| match &o.outcome {
                xform::Outcome::Replaced(rep) if o.instance.kind == kind => Some(rep.clone()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no {kind:?} replaced in {name}"))
    }

    #[test]
    fn chain_replaces_and_validates_spmv_benchmark() {
        assert_eq!(
            replaced_in_benchmark("spmv", IdiomKind::Spmv).callee,
            "csrmv_f64"
        );
    }

    #[test]
    fn chain_replaces_and_validates_stencil_benchmark() {
        let rep = replaced_in_benchmark("stencil", IdiomKind::Stencil2D);
        assert!(rep.callee.starts_with("halide_st2_"));
    }

    /// Fault injection through [`Transformed::module_mut`] happens after
    /// the verifier judged the honest module, so the chain reports clean
    /// IR and a failing validation.
    #[test]
    fn a_tamper_after_transform_passes_verify_and_fails_validate() {
        let src = "double s(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) a += x[i]; return a; }";
        let setup: SetupFn = |m, seed| {
            let x = m.alloc_f64_slice(&[1.0, -2.0, 3.5, 0.25, seed as f64]);
            vec![Value::P(x), Value::I(5)]
        };
        let mut t = compile(src, "s").unwrap().detect().transform();
        assert_eq!(t.xform.replaced(), 1);
        let f = t.module_mut().function_mut("s").expect("entry function");
        let call = f
            .value_ids()
            .find(|&v| {
                f.instr(v)
                    .and_then(|i| i.callee.as_deref())
                    .is_some_and(|c| c.starts_with("lift_red_"))
            })
            .expect("device call present");
        let bad = f.const_float(Type::F64, 12.5);
        f.instr_mut(call).expect("call").operands[3] = bad;
        let v = t.validate("s", setup, &[0, 1]);
        assert!(v.verify_errors.is_empty(), "{:?}", v.verify_errors);
        assert!(
            matches!(
                v.validation,
                Err(ValidationError::ReturnValue { seed: 0, .. })
            ),
            "the tampered init must fail validation: {:?}",
            v.validation
        );
    }

    /// The witness compares reversed variants against the forward runs
    /// validation made — not fresh ones: a bit flipped in one of those
    /// images is reported at its seed, array and index.
    #[test]
    fn a_flipped_forward_element_is_reported_at_its_seed_array_and_index() {
        let b = benchsuite::all()
            .into_iter()
            .find(|b| b.name == "stencil")
            .unwrap();
        let seeds = benchsuite::VALIDATION_SEEDS;
        let mut v = compile(b.source, b.name)
            .unwrap()
            .detect()
            .transform()
            .validate(b.entry, b.setup, &seeds);
        v.validation.as_ref().expect("stencil validates");
        assert_eq!(v.forward.runs.len(), seeds.len());
        let k = 1;
        let run = &mut v.forward.runs[k];
        let (array, al) = run.mem.allocations()[..run.setup_allocs]
            .iter()
            .enumerate()
            .find(|(_, al)| al.elem == Type::F64 && al.count > 0)
            .map(|(i, al)| (i, al.clone()))
            .expect("a double array");
        let index = al.count / 2;
        let addr = al.base + (8 * index) as u64;
        let honest = run.mem.load_f64(addr).expect("in bounds");
        let flipped = f64::from_bits(honest.to_bits() ^ 1);
        run.mem.store_f64(addr, flipped).expect("in bounds");

        match v.witness() {
            Err(ValidationError::Element {
                seed,
                array: a,
                index: i,
                original,
                transformed,
                ..
            }) => {
                assert_eq!((seed, a, i), (seeds[k], array, index));
                assert_eq!(original, Value::F(flipped));
                assert_eq!(transformed, Value::F(honest));
            }
            other => panic!("expected an element divergence, got {other:?}"),
        }
    }

    /// Counts what `transform` builds beyond detection's analyses: an
    /// `Analyses` and a `refresh_blocks` loop forest per attempt on a
    /// function an earlier replacement rewrote, nothing for the others,
    /// and the optimizer's loop forest per generated device program.
    fn transform_builds(d: Detected) -> (Transformed, BuildCounts) {
        let before = BuildCounts::current();
        let t = d.transform();
        let built = BuildCounts::current().since(before);
        (t, built)
    }

    /// How many device programs `t`'s replacements generated.
    fn device_programs(t: &Transformed) -> u64 {
        (t.xform.outcomes.iter())
            .map(|o| match &o.outcome {
                xform::Outcome::Replaced(rep) => rep.generated.len() as u64,
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn transform_analyses_only_the_functions_it_rewrote() {
        let src = "double two(double* x, double* y, int n) {
            double a = 0.0;
            for (int i = 0; i < n; i++) a += x[i];
            double b = 1.0;
            for (int i = 0; i < n; i++) b = b * y[i];
            return a + b;
        }
        double one(double* x, int n) {
            double a = 0.0;
            for (int i = 0; i < n; i++) a += x[i];
            return a;
        }";
        let (t, built) = transform_builds(compile(src, "t").unwrap().detect());
        assert_eq!(t.xform.replaced(), 3);
        assert_eq!(device_programs(&t), 3);
        // Only `two`'s second loop is attempted on a rewritten function;
        // each of the three device programs adds one loop forest.
        assert_eq!((built.analyses, built.loop_forests), (1, 2 + 3));
        // Over the suite: every commit after a function's first is an
        // attempt on a rewritten function, and so is at most every
        // attempt after its first.
        for b in benchsuite::all() {
            let (t, built) = transform_builds(compile(b.source, b.name).unwrap().detect());
            let (mut least, mut most) = (0, 0);
            for f in &t.module.functions {
                let mine = || {
                    t.xform
                        .outcomes
                        .iter()
                        .filter(|o| o.instance.function == f.name)
                };
                let attempts = mine()
                    .filter(|o| !matches!(o.outcome, xform::Outcome::Shadowed { .. }))
                    .count() as u64;
                let replaced = mine().filter(|o| o.outcome.is_replaced()).count() as u64;
                if replaced > 0 {
                    least += replaced - 1;
                    most += attempts - 1;
                }
            }
            assert!(
                (least..=most).contains(&built.analyses),
                "{}: {built:?} outside {least}..={most}",
                b.name
            );
            assert_eq!(
                built.loop_forests,
                2 * built.analyses + device_programs(&t),
                "{}",
                b.name
            );
        }
    }

    /// Detection hands the witness the analyses of every original
    /// function, so the chain's witness builds none itself.
    #[test]
    fn detection_keeps_every_function_s_analyses_for_the_witness() {
        let b = benchsuite::all()
            .into_iter()
            .find(|b| b.name == "CG")
            .unwrap();
        let d = compile(b.source, b.name).unwrap().detect();
        let before = BuildCounts::current();
        for (k, f) in d.module.functions.iter().enumerate() {
            let _ = d.analyses.get(k, f);
        }
        assert_eq!(BuildCounts::current().since(before), BuildCounts::default());
    }

    /// Validation counts every element of every setup array once per
    /// seed, whether the array's bytes matched at once or it was walked
    /// element by element.
    #[test]
    fn validation_counts_every_setup_element_of_a_suite_benchmark() {
        let b = benchsuite::all()
            .into_iter()
            .find(|b| b.name == "spmv")
            .unwrap();
        let v = compile(b.source, b.name)
            .unwrap()
            .detect()
            .transform()
            .validate(b.entry, b.setup, &benchsuite::VALIDATION_SEEDS);
        let summary = v.validation.as_ref().expect("spmv validates");
        let counted: usize = v
            .forward
            .runs
            .iter()
            .flat_map(|run| &run.mem.allocations()[..run.setup_allocs])
            .map(|al| al.count)
            .sum();
        assert_eq!(summary.elements, counted);
        assert_eq!(summary.elements, 24555);
    }

    /// Applies the first replacement of `kind` and hands the transformed
    /// module to `corrupt` for tampering.
    fn replaced_and_corrupted(
        src: &str,
        fname: &str,
        kind: IdiomKind,
        corrupt: impl Fn(&mut Module),
    ) -> (Module, Module) {
        let module = minicc::compile(src, fname).unwrap();
        let inst = idioms::detect_module(&module)
            .into_iter()
            .find(|i| i.kind == kind)
            .expect("instance detected");
        let mut transformed = module.clone();
        xform::apply_replacement(&mut transformed, &inst, 0).expect("replaces");
        corrupt(&mut transformed);
        (module, transformed)
    }

    /// The masked-divergence regression (old validator bug): a corrupted
    /// replacement whose damage never touches memory — a wrong `init`
    /// argument on a reduction, whose result only flows into the entry's
    /// return value — was invisible to the whole-memory prefix snapshot.
    /// The precise validator must catch it via the return value.
    #[test]
    fn corrupted_call_argument_is_caught_even_when_memory_is_identical() {
        let src = "double s(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) a += x[i]; return a; }";
        let setup: SetupFn = |m, seed| {
            let x = m.alloc_f64_slice(&[1.0, -2.0, 3.5, 0.25, seed as f64]);
            vec![Value::P(x), Value::I(5)]
        };
        let (module, corrupted) = replaced_and_corrupted(src, "s", IdiomKind::Reduction, |t| {
            // Swap the device call's `init` argument (0.0 -> 12.5):
            // args are [read bases.., begin, end, init, extras..].
            let f = t.function_mut("s").expect("entry function");
            let call = f
                .value_ids()
                .find(|&v| {
                    f.instr(v)
                        .and_then(|i| i.callee.as_deref())
                        .is_some_and(|c| c.starts_with("lift_red_"))
                })
                .expect("device call present");
            let bad = f.const_float(Type::F64, 12.5);
            f.instr_mut(call).expect("call").operands[3] = bad;
        });
        let err = validate_transform(&module, &corrupted, "s", setup, &[0])
            .expect_err("corruption must be caught");
        assert!(
            matches!(err, ValidationError::ReturnValue { .. }),
            "divergence is return-value-only (memory identical): {err}"
        );
    }

    /// A corrupted pointer argument redirects the stencil output into its
    /// input array; the validator must name the diverging array and
    /// element instead of a generic "memory differs".
    #[test]
    fn corrupted_pointer_argument_reports_array_and_index() {
        let src = "void st(double* o, double* a, int n) { for (int i = 1; i < n - 1; i++) o[i] = a[i-1] + 2.0*a[i] + a[i+1]; }";
        let setup: SetupFn = |m, _seed| {
            let o = m.alloc_f64_slice(&[0.0; 8]);
            let a = m.alloc_f64_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
            vec![Value::P(o), Value::P(a), Value::I(8)]
        };
        let (module, corrupted) = replaced_and_corrupted(src, "st", IdiomKind::Stencil1D, |t| {
            // Point the device call's output base at the input array:
            // args are [out_base, read bases.., begin, end, extras..].
            let f = t.function_mut("st").expect("entry function");
            let call = f
                .value_ids()
                .find(|&v| {
                    f.instr(v)
                        .and_then(|i| i.callee.as_deref())
                        .is_some_and(|c| c.starts_with("halide_st1_"))
                })
                .expect("device call present");
            let ops = &mut f.instr_mut(call).expect("call").operands;
            ops[0] = ops[1];
        });
        let err = validate_transform(&module, &corrupted, "st", setup, &[0])
            .expect_err("corruption must be caught");
        match err {
            ValidationError::Element { array, index, .. } => {
                // The untouched output array (allocation #0) diverges
                // first, at the first interior element.
                assert_eq!(array, 0, "output array is setup allocation #0");
                assert_eq!(index, 1, "first stencil-written element");
            }
            other => panic!("expected an element divergence, got {other}"),
        }
    }

    /// Zero seeds means zero evidence: the validator refuses instead of
    /// returning a vacuous `Ok`.
    #[test]
    fn empty_seed_set_is_a_validation_error() {
        let src = "double s(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) a += x[i]; return a; }";
        let setup: SetupFn = |m, _seed| {
            let x = m.alloc_f64_slice(&[1.0, 2.0]);
            vec![Value::P(x), Value::I(2)]
        };
        let module = minicc::compile(src, "s").unwrap();
        let err = validate_transform(&module, &module, "s", setup, &[]).unwrap_err();
        assert_eq!(err, ValidationError::NoSeeds);
    }

    /// A type-confused call (bad replacement) fails validation through
    /// `ExecError` instead of aborting the process.
    #[test]
    fn type_confused_replacement_fails_validation_gracefully() {
        let src = "double s(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) a += x[i]; return a; }";
        let setup: SetupFn = |m, _seed| {
            let x = m.alloc_f64_slice(&[1.0, 2.0]);
            vec![Value::P(x), Value::I(2)]
        };
        let (module, corrupted) = replaced_and_corrupted(src, "s", IdiomKind::Reduction, |t| {
            // Pass the float init where the device loop expects the
            // integer end bound.
            let f = t.function_mut("s").expect("entry function");
            let call = f
                .value_ids()
                .find(|&v| {
                    f.instr(v)
                        .and_then(|i| i.callee.as_deref())
                        .is_some_and(|c| c.starts_with("lift_red_"))
                })
                .expect("device call present");
            let bad = f.const_float(Type::F64, 2.0);
            f.instr_mut(call).expect("call").operands[2] = bad;
        });
        let err = validate_transform(&module, &corrupted, "s", setup, &[0])
            .expect_err("type confusion must fail validation");
        assert!(
            matches!(
                &err,
                ValidationError::Exec {
                    which: "transformed",
                    ..
                }
            ),
            "got {err}"
        );
    }
}

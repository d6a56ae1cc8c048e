//! # idioms — the idiom library (paper §4)
//!
//! This crate ships the IDL sources of every idiom the paper detects —
//! generalized matrix multiplication, sparse matrix-vector multiplication
//! over CSR, generalized scalar reductions, generalized histograms, and
//! 1D/2D stencils — together with the building blocks they inherit
//! (`For`, `ForNest`, `VectorRead/Store`, `MatrixRead/Store`, `ReadRange`,
//! `DotProductLoop`, index/offset chains). The whole library is plain IDL
//! text (see `idl/*.idl`), staying within the paper's "≈500 lines of IDL"
//! budget, and is compiled through the `idl` crate and searched with the
//! `solver` crate.
//!
//! [`detect`] runs every idiom over a function and post-processes raw
//! solver solutions into deduplicated [`IdiomInstance`]s;
//! [`detect_module`] runs it over every function in module order, and
//! [`detect_with`] additionally reports solver cost and whether any
//! search was truncated by a limit ([`Detection`]). Post-processing:
//!
//! * solver symmetries (commuted operands, transposed matrix roles)
//!   collapse onto one instance per anchor instruction;
//! * structurally-contained matches of lower-priority idioms are
//!   suppressed (the dot-product loop inside a GEMM *is* a scalar
//!   reduction, but the paper reports it as GEMM).

pub use analysis::{ParallelSafety, SafetyCertificate};
use idl::{CompiledConstraint, Library, VarId};
use solver::{RowsOutcome, Solution, SolveOptions, SolveOutcome, Solver};
use ssair::analysis::{AffineMap, Analyses};
use ssair::{BlockId, Function, Module, ValueId};
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

/// The building-block IDL source (paper §4.1).
pub const BUILDING_BLOCKS_IDL: &str = include_str!("../idl/building_blocks.idl");
/// The top-level idiom IDL source (paper §4.2, Figures 10–14).
pub const IDIOMS_IDL: &str = include_str!("../idl/idioms.idl");

/// The idiom classes of the paper's evaluation (Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IdiomKind {
    /// Dense matrix multiplication (`GEMM`).
    Gemm,
    /// Sparse matrix-vector multiplication over CSR (`SPMV`).
    Spmv,
    /// Two-dimensional stencil.
    Stencil2D,
    /// One-dimensional stencil.
    Stencil1D,
    /// Generalized histogram (indirect read-modify-write).
    Histogram,
    /// Generalized scalar reduction.
    Reduction,
}

impl IdiomKind {
    /// All kinds in detection-priority order (most specific first).
    pub const ALL: [IdiomKind; 6] = [
        IdiomKind::Gemm,
        IdiomKind::Spmv,
        IdiomKind::Stencil2D,
        IdiomKind::Stencil1D,
        IdiomKind::Histogram,
        IdiomKind::Reduction,
    ];

    /// The IDL constraint name.
    #[must_use]
    pub fn constraint_name(self) -> &'static str {
        match self {
            IdiomKind::Gemm => "GEMM",
            IdiomKind::Spmv => "SPMV",
            IdiomKind::Stencil2D => "Stencil2D",
            IdiomKind::Stencil1D => "Stencil1D",
            IdiomKind::Histogram => "Histogram",
            IdiomKind::Reduction => "Reduction",
        }
    }

    /// The idiom class label used in Table 1 / Figure 16.
    #[must_use]
    pub fn class_label(self) -> &'static str {
        match self {
            IdiomKind::Gemm => "Matrix Op.",
            IdiomKind::Spmv => "Sparse Matrix Op.",
            IdiomKind::Stencil1D | IdiomKind::Stencil2D => "Stencil",
            IdiomKind::Histogram => "Histogram Reduction",
            IdiomKind::Reduction => "Scalar Reduction",
        }
    }

    fn anchor_var(self) -> &'static str {
        match self {
            IdiomKind::Gemm => "output.store",
            IdiomKind::Spmv => "output.store",
            IdiomKind::Stencil2D | IdiomKind::Stencil1D => "write.store",
            IdiomKind::Histogram => "store",
            IdiomKind::Reduction => "acc",
        }
    }

    /// The binding name of the outermost loop's iterator phi — the value
    /// that anchors the replacement region.
    #[must_use]
    pub fn outer_iterator_var(self) -> &'static str {
        match self {
            IdiomKind::Gemm | IdiomKind::Stencil2D => "loop[0].iterator",
            _ => "iterator",
        }
    }
}

/// The parsed idiom library (building blocks + idioms), shared process-wide.
pub fn library() -> &'static Library {
    static LIB: OnceLock<Library> = OnceLock::new();
    LIB.get_or_init(|| {
        let mut src = String::from(BUILDING_BLOCKS_IDL);
        src.push('\n');
        src.push_str(IDIOMS_IDL);
        idl::parse_library(&src).expect("the bundled idiom library parses")
    })
}

/// The compiled constraint for one idiom kind (compiled once, process-wide).
pub fn compiled(kind: IdiomKind) -> &'static CompiledConstraint {
    static CACHE: OnceLock<BTreeMap<IdiomKind, CompiledConstraint>> = OnceLock::new();
    let map = CACHE.get_or_init(|| {
        IdiomKind::ALL
            .iter()
            .map(|&k| {
                let c = idl::compile(library(), k.constraint_name())
                    .expect("the bundled idiom library compiles");
                (k, c)
            })
            .collect()
    });
    &map[&kind]
}

/// Total line count of the bundled IDL (the paper reports ≈500 lines for
/// its full idiom set; ours is kept in the same budget).
#[must_use]
pub fn idl_line_count() -> usize {
    BUILDING_BLOCKS_IDL.lines().count() + IDIOMS_IDL.lines().count()
}

/// Cache key of one shared loop skeleton *chain*: the reconstructed IDL
/// clause text of every marker in the chain, joined with `" and "`
/// (e.g. `"inherits For and inherits LoopAccumulator"`). Idioms whose
/// compiled constraints carry the same chain text share one cache entry.
pub type SkeletonKey = String;

/// The per-idiom skeleton chain, precomputed once: the cache key, the
/// idiom-side variables the chain binds (deduplicated in first-occurrence
/// order — exactly the seed prefix of the idiom's variable ordering), and
/// for each such variable the column of the standalone chain constraint's
/// solution rows that carries its value.
struct ChainInfo {
    key: SkeletonKey,
    seed_vars: Vec<VarId>,
    columns: Vec<usize>,
}

fn chain_info(kind: IdiomKind) -> Option<&'static ChainInfo> {
    static CACHE: OnceLock<BTreeMap<IdiomKind, ChainInfo>> = OnceLock::new();
    let map = CACHE.get_or_init(|| {
        let mut map = BTreeMap::new();
        for kind in IdiomKind::ALL {
            let c = compiled(kind);
            if c.skeletons.is_empty() {
                continue;
            }
            let key: SkeletonKey = c
                .skeletons
                .iter()
                .map(idl::SkeletonRef::clause)
                .collect::<Vec<_>>()
                .join(" and ");
            let mut seed_vars: Vec<VarId> = Vec::new();
            for s in &c.skeletons {
                for &v in &s.vars {
                    if !seed_vars.contains(&v) {
                        seed_vars.push(v);
                    }
                }
            }
            // The standalone chain constraint reuses the idiom's flattened
            // variable names (the clauses are reconstructed with the same
            // renames/rebase), so columns are resolved by name.
            let standalone = &skeleton_constraints()[&key];
            let columns: Vec<usize> = seed_vars
                .iter()
                .map(|&v| {
                    let name = c.var_name(v);
                    standalone
                        .variables
                        .iter()
                        .position(|&w| standalone.var_name(w) == name)
                        .unwrap_or_else(|| {
                            panic!(
                                "skeleton chain of {kind:?}: variable {name:?} \
                                 missing from standalone chain {key:?}"
                            )
                        })
                })
                .collect();
            assert_eq!(
                standalone.variables.len(),
                seed_vars.len(),
                "skeleton chain of {kind:?}: standalone variables must align \
                 with the chain markers"
            );
            map.insert(
                kind,
                ChainInfo {
                    key,
                    seed_vars,
                    columns,
                },
            );
        }
        map
    });
    map.get(&kind)
}

/// The standalone-compiled skeleton chains the idiom library shares,
/// compiled once process-wide. Each entry is the wrapper
/// `Constraint __Skeleton ( <clauses> ) End` over the chain's clause
/// text, compiled against the already parsed [`library`] — the
/// expansion is the same subtree the idiom embeds, under the same
/// flattened variable names.
pub fn skeleton_constraints() -> &'static BTreeMap<SkeletonKey, CompiledConstraint> {
    static CACHE: OnceLock<BTreeMap<SkeletonKey, CompiledConstraint>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let mut map = BTreeMap::new();
        for kind in IdiomKind::ALL {
            let c = compiled(kind);
            if c.skeletons.is_empty() {
                continue;
            }
            let clauses: Vec<String> = c.skeletons.iter().map(idl::SkeletonRef::clause).collect();
            let key: SkeletonKey = clauses.join(" and ");
            if map.contains_key(&key) {
                continue;
            }
            let sc = compile_chain(&key);
            map.insert(key, sc);
        }
        // Also ship every composite chain's leading clause as its own
        // standalone (e.g. `inherits ForNest(N=3)` from the GEMM chain):
        // that makes it a seedable prefix for `chain_prefix`, and pure
        // nest prefixes are then synthesized from `For` rows without a
        // search (see `SkeletonCache::nest_rows`).
        let prefixes: Vec<SkeletonKey> = map
            .values()
            .filter(|c| c.skeletons.len() >= 2)
            .map(|c| c.skeletons[0].clause())
            .filter(|k| !map.contains_key(k))
            .collect();
        for key in prefixes {
            let sc = compile_chain(&key);
            map.insert(key, sc);
        }
        map
    })
}

/// Compiles the wrapper `Constraint __Skeleton ( <key> ) End` against
/// the idiom library: only the one-line wrapper is parsed, and every
/// block it inherits resolves to the library's building-block definition.
fn compile_chain(key: &str) -> CompiledConstraint {
    let wrapper = idl::parse_library(&format!("Constraint __Skeleton ( {key} ) End"))
        .expect("skeleton wrapper parses");
    idl::compile_definition(library(), &wrapper.defs[0]).expect("skeleton wrapper compiles")
}

/// Number of distinct skeleton cache keys across the idiom library (the
/// prepass solves at most this many extra searches per function — the
/// bound tests use for budget accounting).
#[must_use]
pub fn skeleton_key_count() -> usize {
    skeleton_constraints().len()
}

/// Per-function cache of solved loop skeletons: for each key, the
/// solution rows aligned with the standalone block's `variables` —
/// or `None` when the skeleton solve itself was truncated (consumers
/// then fall back to the unseeded search, preserving the exact PR-2
/// budget semantics).
struct SkeletonCache {
    solved: HashMap<SkeletonKey, Option<Vec<Vec<ValueId>>>>,
    /// Steps spent solving skeletons (accounted once per function,
    /// reported separately in [`Detection::skeleton_steps`]).
    steps: u64,
}

impl SkeletonCache {
    fn new() -> SkeletonCache {
        SkeletonCache {
            solved: HashMap::new(),
            steps: 0,
        }
    }

    /// Solutions for `key` on `solver`'s function, solving on first use.
    fn get(
        &mut self,
        solver: &Solver,
        key: &SkeletonKey,
        max_steps: u64,
    ) -> Option<&Vec<Vec<ValueId>>> {
        if !self.solved.contains_key(key) {
            if let Some(rows) = self.nest_rows(solver, key, max_steps) {
                self.solved.insert(key.clone(), Some(rows));
            }
        }
        if !self.solved.contains_key(key) {
            let c = &skeleton_constraints()[key];
            let opts = SolveOptions {
                // No solution cap: the row count is bounded by the
                // step budget, and a capped skeleton would poison
                // every consumer.
                max_solutions: usize::MAX,
                max_steps,
            };
            let out = self.solve_chain(solver, key, c, &opts);
            self.steps += out.steps;
            let rows = out.complete.then_some(out.rows);
            self.solved.insert(key.clone(), rows);
        }
        self.solved[key].as_ref()
    }

    /// Solves one standalone chain constraint, seeding a composite chain
    /// from its leading marker's plain chain when the library also ships
    /// that prefix as its own key (e.g. `For + LoopAccumulator` seeds
    /// from the cached `For` rows instead of re-proving the loop shape).
    /// Sound and exact for the same reason idiom seeding is: every
    /// composite solution satisfies the leading clause, so its projection
    /// onto the clause's variables — an order prefix, by the chain
    /// ordering seed — appears among the prefix chain's complete rows.
    fn solve_chain(
        &mut self,
        solver: &Solver,
        key: &SkeletonKey,
        c: &CompiledConstraint,
        opts: &SolveOptions,
    ) -> RowsOutcome {
        if let Some(prefix) = chain_prefix(key) {
            let seeds: Option<Vec<Vec<(VarId, ValueId)>>> =
                self.get(solver, &prefix.key, opts.max_steps).map(|rows| {
                    rows.iter()
                        .map(|row| {
                            prefix
                                .seed_vars
                                .iter()
                                .copied()
                                .zip(prefix.columns.iter().map(|&col| row[col]))
                                .collect()
                        })
                        .collect()
                });
            if let Some(seeds) = seeds {
                let seeded = solver.solve_seeded_rows(c, &seeds, &c.variables, opts);
                if seeded.complete {
                    return seeded;
                }
                // Truncated: rerun unseeded (same budget semantics as the
                // cache-free path), billing the seeded attempt's steps.
                let mut fallback = solver.solve_rows(c, &c.variables, opts);
                fallback.steps += seeded.steps;
                return fallback;
            }
        }
        solver.solve_rows(c, &c.variables, opts)
    }

    /// Synthesizes the rows of a pure loop-nest chain
    /// (`inherits ForNest(N=k)`) from already-cached rows, with zero
    /// solver steps: a `ForNest(k)` expansion is exactly
    /// `ForNest(k-1) ∧ For ∧` the two nesting legs between loops `k-2`
    /// and `k-1`, so its solution set is the filtered cross product —
    /// each candidate pair is kept iff the outer iterator strictly
    /// dominates the inner one and the outer comparison strictly
    /// post-dominates the inner one (the atoms' exact value-level
    /// semantics, via the solver's dominance helpers). Projection onto
    /// the constituent blocks is complete for the same reason chain
    /// seeding is sound. Returns `None` when `key` is not a pure nest
    /// chain or a constituent solve was truncated — callers then fall
    /// back to the ordinary search with unchanged budget semantics.
    fn nest_rows(
        &mut self,
        solver: &Solver,
        key: &SkeletonKey,
        max_steps: u64,
    ) -> Option<Vec<Vec<ValueId>>> {
        let plan = nest_plan(key)?;
        let prev = self.get(solver, &plan.prev_key, max_steps)?.clone();
        let fors = self
            .get(solver, &"inherits For".to_string(), max_steps)?
            .clone();
        let mut rows = Vec::new();
        for p in &prev {
            for r in &fors {
                if solver.value_strictly_dominates(p[plan.prev_it], r[plan.for_it])
                    && solver.value_strictly_post_dominates(p[plan.prev_cmp], r[plan.for_cmp])
                {
                    rows.push(
                        plan.map
                            .iter()
                            .map(|&(from_for, col)| if from_for { r[col] } else { p[col] })
                            .collect(),
                    );
                }
            }
        }
        Some(rows)
    }
}

/// Column plan for synthesizing `ForNest(k)` rows (see
/// [`SkeletonCache::nest_rows`]): where each variable of the nest
/// standalone comes from (`ForNest(k-1)` row or `For` row), plus the
/// columns the two nesting legs test.
struct NestPlan {
    prev_key: SkeletonKey,
    /// Per target column: `(true, c)` = column `c` of the `For` row
    /// (loop `k-1`), `(false, c)` = column `c` of the prefix row.
    map: Vec<(bool, usize)>,
    prev_it: usize,
    prev_cmp: usize,
    for_it: usize,
    for_cmp: usize,
}

/// The synthesis plan of a pure nest chain key, computed once
/// process-wide; `None` for every other key.
fn nest_plan(key: &SkeletonKey) -> Option<&'static NestPlan> {
    static CACHE: OnceLock<BTreeMap<SkeletonKey, Option<NestPlan>>> = OnceLock::new();
    let map = CACHE.get_or_init(|| {
        skeleton_constraints()
            .keys()
            .map(|key| (key.clone(), build_nest_plan(key)))
            .collect()
    });
    map.get(key)?.as_ref()
}

fn build_nest_plan(key: &SkeletonKey) -> Option<NestPlan> {
    let k: u32 = key
        .strip_prefix("inherits ForNest(N=")?
        .strip_suffix(')')?
        .parse()
        .ok()?;
    if k < 2 {
        return None;
    }
    let prev_key: SkeletonKey = if k == 2 {
        "inherits For".to_string()
    } else {
        format!("inherits ForNest(N={})", k - 1)
    };
    let target = skeleton_constraints().get(key)?;
    let prev = skeleton_constraints().get(&prev_key)?;
    let fors = skeleton_constraints().get(&"inherits For".to_string())?;
    let col_of = |c: &idl::CompiledConstraint, name: &str| -> Option<usize> {
        c.variables.iter().position(|&v| c.var_name(v) == name)
    };
    let inner_prefix = format!("loop[{}].", k - 1);
    let map: Vec<(bool, usize)> = target
        .variables
        .iter()
        .map(|&v| {
            let name = target.var_name(v);
            if let Some(plain) = name.strip_prefix(&inner_prefix) {
                (
                    true,
                    col_of(fors, plain).expect("nest inner variable maps to For"),
                )
            } else {
                // Prefix rows: exact name for k ≥ 3, `loop[0].`-stripped
                // for the k = 2 case where the prefix is plain `For`.
                let col =
                    col_of(prev, name).or_else(|| col_of(prev, name.strip_prefix("loop[0].")?));
                (
                    false,
                    col.expect("nest prefix variable maps to the prefix chain"),
                )
            }
        })
        .collect();
    let outer = format!("loop[{}].", k - 2);
    let prev_col = |plain: &str| -> usize {
        col_of(prev, &format!("{outer}{plain}"))
            .or_else(|| col_of(prev, plain))
            .expect("nesting-leg variable present in the prefix chain")
    };
    Some(NestPlan {
        prev_it: prev_col("iterator"),
        prev_cmp: prev_col("comparison"),
        for_it: col_of(fors, "iterator").expect("For has an iterator"),
        for_cmp: col_of(fors, "comparison").expect("For has a comparison"),
        prev_key,
        map,
    })
}

/// The seeding prefix of a composite standalone chain constraint: its
/// first marker's clause, when that clause is itself a library chain key.
/// Computed once per composite key, process-wide.
fn chain_prefix(key: &SkeletonKey) -> Option<&'static ChainInfo> {
    static CACHE: OnceLock<BTreeMap<SkeletonKey, Option<ChainInfo>>> = OnceLock::new();
    let map = CACHE.get_or_init(|| {
        skeleton_constraints()
            .iter()
            .map(|(key, c)| {
                let info = (c.skeletons.len() >= 2)
                    .then(|| {
                        let first = &c.skeletons[0];
                        let prefix_key: SkeletonKey = first.clause();
                        let standalone = skeleton_constraints().get(&prefix_key)?;
                        let mut seed_vars: Vec<VarId> = Vec::new();
                        for &v in &first.vars {
                            if !seed_vars.contains(&v) {
                                seed_vars.push(v);
                            }
                        }
                        // Same name-resolution as `chain_info`: the prefix
                        // standalone reuses the clause's flattened names.
                        let columns: Vec<usize> = seed_vars
                            .iter()
                            .map(|&v| {
                                let name = c.var_name(v);
                                standalone
                                    .variables
                                    .iter()
                                    .position(|&w| standalone.var_name(w) == name)
                                    .unwrap_or_else(|| {
                                        panic!(
                                            "chain prefix {prefix_key:?}: variable \
                                             {name:?} missing from the standalone"
                                        )
                                    })
                            })
                            .collect();
                        assert_eq!(standalone.variables.len(), seed_vars.len());
                        Some(ChainInfo {
                            key: prefix_key,
                            seed_vars,
                            columns,
                        })
                    })
                    .flatten();
                (key.clone(), info)
            })
            .collect()
    });
    map[key].as_ref()
}

/// One detected idiom instance in a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdiomInstance {
    /// The idiom class.
    pub kind: IdiomKind,
    /// Function the instance was found in.
    pub function: String,
    /// The full solver bindings (Figure 5 of the paper).
    pub bindings: BTreeMap<String, ValueId>,
    /// The anchoring instruction (the store that is deleted on
    /// replacement, or the accumulator phi for scalar reductions).
    pub anchor: ValueId,
    /// Blocks of the outermost matched loop — the replacement region and
    /// the unit of runtime-coverage accounting.
    pub blocks: Vec<BlockId>,
    /// The provisional parallel-safety certificate of the region
    /// (`analysis::classify_region` with intra-function facts only — no
    /// call-site alias facts, which need the whole module and are folded
    /// in by the transform driver).
    pub certificate: SafetyCertificate,
}

impl IdiomInstance {
    /// Binding lookup.
    #[must_use]
    pub fn value(&self, var: &str) -> Option<ValueId> {
        self.bindings.get(var).copied()
    }

    /// All bound members of the family `name` (e.g. `read_value`), in
    /// index order.
    #[must_use]
    pub fn family(&self, name: &str) -> Vec<ValueId> {
        let prefix = format!("{name}[");
        let mut found: Vec<(usize, ValueId)> = Vec::new();
        for (k, &v) in &self.bindings {
            if let Some(rest) = k.strip_prefix(&prefix) {
                if let Some(close) = rest.find(']') {
                    if rest[close + 1..].is_empty() {
                        if let Ok(i) = rest[..close].parse() {
                            found.push((i, v));
                        }
                    }
                }
            }
        }
        found.sort_by_key(|&(i, _)| i);
        found.into_iter().map(|(_, v)| v).collect()
    }

    /// Recomputes [`IdiomInstance::blocks`] against the *current* state of
    /// `f`.
    ///
    /// Block ids are compacted when a replacement excises a loop
    /// (`remove_unreachable_blocks`), so an instance detected before an
    /// earlier replacement in the same function must refresh its region
    /// before being applied. Value ids are stable across excision, which
    /// is why re-anchoring on the outer iterator phi works. Returns
    /// `false` (leaving `blocks` untouched) when the iterator is no
    /// longer placed in `f` — i.e. the instance's loop no longer exists.
    pub fn refresh_blocks(&mut self, f: &Function) -> bool {
        let Some(iter) = self.value(self.kind.outer_iterator_var()) else {
            return false;
        };
        let Some(header) = f.find_block_of(iter) else {
            return false;
        };
        let cfg = ssair::analysis::Cfg::new(f);
        let dom = ssair::analysis::DomTree::dominators(&cfg);
        let loops = ssair::analysis::LoopForest::new(&cfg, &dom);
        self.blocks = loops
            .loop_with_header(header)
            .map(|l| l.blocks.clone())
            .unwrap_or_else(|| vec![header]);
        true
    }
}

/// Detection limits.
#[derive(Debug, Clone)]
pub struct DetectOptions {
    /// Per-idiom cap on raw solver solutions.
    pub max_solutions: usize,
    /// Solver step budget per idiom per function.
    pub max_steps: u64,
    /// Solve the shared loop-skeleton chains once per function and seed
    /// every idiom's search from the cached solutions. `false` selects
    /// the compatibility slow path (each idiom re-enumerates its loop
    /// headers) — detection output is identical either way, which the
    /// differential tests pin.
    pub skeleton_prepass: bool,
    /// Fingerprint each function once and skip every idiom whose
    /// requirement signature ([`analysis::IdiomRequirements`]) the
    /// fingerprint cannot satisfy — the pair is proven matchless with
    /// zero solver steps. `false` selects the compatibility path; the
    /// instance output is identical either way (requirements are
    /// *necessary* conditions), which the differential tests pin.
    pub fingerprint_prepass: bool,
}

impl Default for DetectOptions {
    fn default() -> DetectOptions {
        DetectOptions {
            max_solutions: 128,
            max_steps: 20_000_000,
            skeleton_prepass: true,
            fingerprint_prepass: true,
        }
    }
}

/// The outcome of running the full idiom library over one function.
///
/// Detection that hits a solver limit (`max_solutions`/`max_steps`) may
/// silently miss instances; `complete` surfaces that truncation so
/// callers can widen the budget or flag the result, instead of treating
/// an undercount as the true population.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Deduplicated, priority-filtered instances.
    pub instances: Vec<IdiomInstance>,
    /// `false` if any idiom's search was cut off by a limit.
    pub complete: bool,
    /// Total solver assignment steps across all idioms, *including*
    /// `skeleton_steps`.
    pub steps: u64,
    /// Solver steps per idiom kind (the per-idiom cost profile; excludes
    /// the shared skeleton prepass).
    pub steps_by_kind: BTreeMap<IdiomKind, u64>,
    /// Steps spent solving the shared loop skeletons, accounted once per
    /// function (not split across the consuming idioms).
    pub skeleton_steps: u64,
    /// Idiom×function pairs the fingerprint prepass proved matchless and
    /// skipped without touching the solver.
    pub pruned_pairs: u64,
}

impl Detection {
    /// Instance count per parallel-safety class (the certificate census
    /// the benchmark artifacts record).
    #[must_use]
    pub fn certificate_counts(&self) -> BTreeMap<ParallelSafety, u64> {
        let mut counts = BTreeMap::new();
        for inst in &self.instances {
            *counts.entry(inst.certificate.safety).or_insert(0) += 1;
        }
        counts
    }
}

/// Runs the full idiom library over `f` and returns deduplicated,
/// priority-filtered instances.
#[must_use]
pub fn detect(f: &Function) -> Vec<IdiomInstance> {
    detect_with(f, &DetectOptions::default()).instances
}

/// [`detect`] with explicit limits, reporting completeness and cost.
#[must_use]
pub fn detect_with(f: &Function, opts: &DetectOptions) -> Detection {
    detect_kinds_with(f, &IdiomKind::ALL, opts)
}

/// [`detect_with`] restricted to a subset of idiom kinds (the per-idiom
/// benchmarks time each kind in isolation through this).
///
/// Budget accounting: each kind's search gets `opts.max_steps`; the
/// skeleton prepass spends at most `opts.max_steps` per distinct
/// skeleton key (charged once per function, reported in
/// [`Detection::skeleton_steps`]); and a seeded search that hits a limit
/// falls back to one unseeded search under the same per-kind budget. A
/// detection pass over `k` kinds is therefore bounded by
/// `(2·k + skeleton_key_count()) · max_steps` total steps.
#[must_use]
pub fn detect_kinds_with(f: &Function, kinds: &[IdiomKind], opts: &DetectOptions) -> Detection {
    detect_kinds_analysed(f, kinds, opts).0
}

/// [`detect_with`] that also returns the analyses it built for `f`: a
/// later stage that reads the same unchanged function (the pipeline's
/// reversal witness) takes them instead of building them again.
#[must_use]
pub fn detect_with_analyses(
    f: &Function,
    opts: &DetectOptions,
) -> (Detection, Analyses, AffineMap) {
    detect_kinds_analysed(f, &IdiomKind::ALL, opts)
}

fn detect_kinds_analysed(
    f: &Function,
    kinds: &[IdiomKind],
    opts: &DetectOptions,
) -> (Detection, Analyses, AffineMap) {
    let solver = Solver::new(f);
    let solve_opts = SolveOptions {
        max_solutions: opts.max_solutions,
        max_steps: opts.max_steps,
    };
    // The solver already computed every analysis detection needs.
    let an = solver.analyses();
    let affine = AffineMap::new(f, an);
    let fingerprint = opts
        .fingerprint_prepass
        .then(|| analysis::FunctionFingerprint::with_loops(f, &an.loops));
    let mut skeletons = SkeletonCache::new();
    let mut out: Vec<IdiomInstance> = Vec::new();
    let mut complete = true;
    let mut steps = 0u64;
    let mut steps_by_kind = BTreeMap::new();
    let mut pruned_pairs = 0u64;
    for &kind in kinds {
        if let Some(fp) = &fingerprint {
            if !requirements(kind).admitted_by(fp) {
                // Proven matchless: a necessary condition of the idiom is
                // absent from the function. Zero solver steps, and the
                // search stays complete — "no instances" is exact.
                pruned_pairs += 1;
                steps_by_kind.insert(kind, 0);
                continue;
            }
        }
        let c = compiled(kind);
        let res = solve_idiom(&solver, c, kind, opts, &solve_opts, &mut skeletons);
        complete &= res.complete;
        steps += res.steps;
        steps_by_kind.insert(kind, res.steps);
        let mut seen_anchor: Vec<ValueId> = Vec::new();
        for sol in &res.solutions {
            let Some(inst) = instance_from_solution(f, an, &affine, kind, sol) else {
                continue;
            };
            if seen_anchor.contains(&inst.anchor) {
                continue; // operand-order / transposition symmetry
            }
            // A lower-priority match contained in a higher-priority one is
            // dropped: the paper reports the most specific idiom per region.
            if out.iter().any(|prev| {
                prev.kind != kind && inst.blocks.iter().all(|b| prev.blocks.contains(b))
            }) {
                continue; // e.g. the dot-product reduction inside a GEMM
            }
            seen_anchor.push(inst.anchor);
            out.push(inst);
        }
    }
    let detection = Detection {
        instances: out,
        complete,
        steps: steps + skeletons.steps,
        steps_by_kind,
        skeleton_steps: skeletons.steps,
        pruned_pairs,
    };
    (detection, solver.into_analyses(), affine)
}

/// The requirement signature of one idiom kind (derived once,
/// process-wide, from the compiled constraint).
pub fn requirements(kind: IdiomKind) -> &'static analysis::IdiomRequirements {
    static CACHE: OnceLock<BTreeMap<IdiomKind, analysis::IdiomRequirements>> = OnceLock::new();
    let map = CACHE.get_or_init(|| {
        IdiomKind::ALL
            .iter()
            .map(|&k| (k, analysis::IdiomRequirements::of(compiled(k))))
            .collect()
    });
    &map[&kind]
}

/// Solves one idiom, seeding from the per-function skeleton cache when
/// possible.
///
/// The seeded search enumerates exactly the unseeded solution set (the
/// solver returns both in canonical order, so the outcomes are
/// byte-identical) *when everything completes*; any truncation — of the
/// skeleton solve or of the seeded search itself — falls back to the
/// plain search so limit semantics stay exactly as without the cache.
fn solve_idiom(
    solver: &Solver,
    c: &CompiledConstraint,
    kind: IdiomKind,
    opts: &DetectOptions,
    solve_opts: &SolveOptions,
    skeletons: &mut SkeletonCache,
) -> SolveOutcome {
    if opts.skeleton_prepass {
        if let Some(chain) = chain_info(kind) {
            if let Some(rows) = skeletons.get(solver, &chain.key, opts.max_steps) {
                let seeds: Vec<Vec<(VarId, ValueId)>> = rows
                    .iter()
                    .map(|row| {
                        chain
                            .seed_vars
                            .iter()
                            .copied()
                            .zip(chain.columns.iter().map(|&col| row[col]))
                            .collect()
                    })
                    .collect();
                let seeded = solver.solve_seeded_outcome(c, &seeds, solve_opts);
                if seeded.complete {
                    return seeded;
                }
                // Truncated: rerun unseeded so limit behaviour matches
                // the cache-free path exactly, but keep the seeded
                // attempt's steps in the bill — the work was done.
                let mut fallback = solver.solve_outcome(c, solve_opts);
                fallback.steps += seeded.steps;
                return fallback;
            }
        }
    }
    solver.solve_outcome(c, solve_opts)
}

/// Runs detection over every function of `m` and returns the instances
/// in function order.
#[must_use]
pub fn detect_module(m: &Module) -> Vec<IdiomInstance> {
    m.functions.iter().flat_map(detect).collect()
}

/// The module detection driver: one [`Detection`] per function of `fs`,
/// in input order, computed serially on the caller's thread. Per-module
/// detection costs about a millisecond, less than spawning a thread, so
/// parallelism lives one level up, across modules (the corpus workers).
#[must_use]
pub fn detect_functions(fs: &[&Function], opts: &DetectOptions) -> Vec<Detection> {
    fs.iter().map(|f| detect_with(f, opts)).collect()
}

fn instance_from_solution(
    f: &Function,
    an: &ssair::analysis::Analyses,
    affine: &AffineMap,
    kind: IdiomKind,
    sol: &Solution,
) -> Option<IdiomInstance> {
    let anchor = *sol.bindings.get(kind.anchor_var())?;
    let outer_iter = *sol.bindings.get(kind.outer_iterator_var())?;
    let header = an.layout.block_of(outer_iter)?;
    let blocks = an
        .loops
        .loop_with_header(header)
        .map(|l| l.blocks.clone())
        .unwrap_or_else(|| vec![header]);
    let certificate = analysis::classify_region(f, an, affine, &blocks, outer_iter, None);
    Some(IdiomInstance {
        kind,
        function: f.name.clone(),
        bindings: sol.bindings.clone(),
        anchor,
        blocks,
        certificate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_parses_and_compiles() {
        let lib = library();
        assert!(lib.get("For").is_some());
        assert!(lib.get("GEMM").is_some());
        for kind in IdiomKind::ALL {
            let c = compiled(kind);
            assert!(!c.variables.is_empty(), "{kind:?} has variables");
        }
    }

    #[test]
    fn idl_budget_is_paper_sized() {
        let lines = idl_line_count();
        assert!(
            lines <= 520,
            "idiom library must stay near the paper's ~500 lines, got {lines}"
        );
    }
}

//! Functions, basic blocks, instructions and values.
//!
//! Every SSA value in a function — arguments, constants and instructions —
//! lives in a single per-function arena and is addressed by [`ValueId`].
//! This flat addressing is what the constraint solver searches over: an IDL
//! variable is assigned a `ValueId`, exactly as the paper's solver assigns
//! LLVM `Value*`s.

use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// Index of a value (argument, constant or instruction) within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Index of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Integer comparison predicates (a subset of LLVM's `icmp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ICmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
}

impl ICmpPred {
    /// The textual mnemonic, e.g. `slt`.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            ICmpPred::Eq => "eq",
            ICmpPred::Ne => "ne",
            ICmpPred::Slt => "slt",
            ICmpPred::Sle => "sle",
            ICmpPred::Sgt => "sgt",
            ICmpPred::Sge => "sge",
        }
    }

    /// The predicate with operands swapped (`a < b` becomes `b > a`).
    #[must_use]
    pub fn swapped(self) -> ICmpPred {
        match self {
            ICmpPred::Eq => ICmpPred::Eq,
            ICmpPred::Ne => ICmpPred::Ne,
            ICmpPred::Slt => ICmpPred::Sgt,
            ICmpPred::Sle => ICmpPred::Sge,
            ICmpPred::Sgt => ICmpPred::Slt,
            ICmpPred::Sge => ICmpPred::Sle,
        }
    }
}

/// Floating-point comparison predicates (ordered forms only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmpPred {
    /// Ordered equal.
    Oeq,
    /// Ordered not-equal.
    One,
    /// Ordered less-than.
    Olt,
    /// Ordered less-or-equal.
    Ole,
    /// Ordered greater-than.
    Ogt,
    /// Ordered greater-or-equal.
    Oge,
}

impl FCmpPred {
    /// The textual mnemonic, e.g. `olt`.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            FCmpPred::Oeq => "oeq",
            FCmpPred::One => "one",
            FCmpPred::Olt => "olt",
            FCmpPred::Ole => "ole",
            FCmpPred::Ogt => "ogt",
            FCmpPred::Oge => "oge",
        }
    }
}

/// Instruction opcodes.
///
/// This is the instruction inventory of the IDL atomic constraints plus the
/// conversions and calls needed to express the benchmark programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Integer addition: `add a, b`.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Signed integer division.
    SDiv,
    /// Signed integer remainder.
    SRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    AShr,
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Floating-point division.
    FDiv,
    /// Integer comparison; the payload is its [`ICmpPred`].
    ICmp(ICmpPred),
    /// Floating-point comparison.
    FCmp(FCmpPred),
    /// `select cond, a, b` — ternary choice.
    Select,
    /// `gep ptr, idx` — typed pointer arithmetic: `ptr + idx * sizeof(elem)`.
    /// Always exactly one index operand (multi-dimensional arrays are
    /// flattened by the frontend).
    Gep,
    /// Memory load through a pointer operand.
    Load,
    /// `store value, ptr`.
    Store,
    /// SSA phi; operand `i` flows in from [`Instr::incoming`] block `i`.
    Phi,
    /// Unconditional branch; target in [`Instr::targets`].
    Br,
    /// Conditional branch: operand 0 is the `i1` condition;
    /// `targets[0]` is taken on true, `targets[1]` on false.
    CondBr,
    /// Function return; zero or one operand.
    Ret,
    /// Direct call to a named callee (runtime intrinsics, extracted
    /// kernels, heterogeneous API entry points).
    Call,
    /// Stack allocation of `count` elements of the pointee type;
    /// operand 0 is the element count.
    Alloca,
    /// Sign-extend an integer to a wider integer type.
    SExt,
    /// Zero-extend an integer to a wider integer type.
    ZExt,
    /// Truncate an integer to a narrower integer type.
    Trunc,
    /// Signed integer to floating point.
    SIToFP,
    /// Floating point to signed integer.
    FPToSI,
    /// Extend `f32` to `f64`.
    FPExt,
    /// Truncate `f64` to `f32`.
    FPTrunc,
}

impl Opcode {
    /// The textual mnemonic, e.g. `fadd`.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::SDiv => "sdiv",
            Opcode::SRem => "srem",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::AShr => "ashr",
            Opcode::FAdd => "fadd",
            Opcode::FSub => "fsub",
            Opcode::FMul => "fmul",
            Opcode::FDiv => "fdiv",
            Opcode::ICmp(_) => "icmp",
            Opcode::FCmp(_) => "fcmp",
            Opcode::Select => "select",
            Opcode::Gep => "getelementptr",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::Phi => "phi",
            Opcode::Br => "br",
            Opcode::CondBr => "br",
            Opcode::Ret => "ret",
            Opcode::Call => "call",
            Opcode::Alloca => "alloca",
            Opcode::SExt => "sext",
            Opcode::ZExt => "zext",
            Opcode::Trunc => "trunc",
            Opcode::SIToFP => "sitofp",
            Opcode::FPToSI => "fptosi",
            Opcode::FPExt => "fpext",
            Opcode::FPTrunc => "fptrunc",
        }
    }

    /// `true` for `br` and conditional `br`.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self, Opcode::Br | Opcode::CondBr)
    }

    /// `true` for instructions that end a basic block.
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        matches!(self, Opcode::Br | Opcode::CondBr | Opcode::Ret)
    }

    /// `true` for pure data computations with no memory or control effect
    /// (the instruction set a detached kernel function may contain).
    #[must_use]
    pub fn is_pure_arith(&self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Sub
                | Opcode::Mul
                | Opcode::SDiv
                | Opcode::SRem
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Shl
                | Opcode::AShr
                | Opcode::FAdd
                | Opcode::FSub
                | Opcode::FMul
                | Opcode::FDiv
                | Opcode::ICmp(_)
                | Opcode::FCmp(_)
                | Opcode::Select
                | Opcode::SExt
                | Opcode::ZExt
                | Opcode::Trunc
                | Opcode::SIToFP
                | Opcode::FPToSI
                | Opcode::FPExt
                | Opcode::FPTrunc
        )
    }

    /// `true` if the instruction reads or writes memory.
    #[must_use]
    pub fn touches_memory(&self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store | Opcode::Call)
    }
}

/// An instruction: opcode, operands and placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// What the instruction does.
    pub opcode: Opcode,
    /// Value operands (for `phi`, the incoming values).
    pub operands: Vec<ValueId>,
    /// For `phi`: incoming blocks, parallel to `operands`.
    pub incoming: Vec<BlockId>,
    /// For `br`/`condbr`: successor blocks.
    pub targets: Vec<BlockId>,
    /// For `call`: the callee symbol.
    pub callee: Option<String>,
}

impl Instr {
    /// An instruction with operands only: no incoming blocks, targets or
    /// callee.
    #[must_use]
    pub fn simple(opcode: Opcode, operands: Vec<ValueId>) -> Instr {
        Instr {
            opcode,
            operands,
            incoming: Vec::new(),
            targets: Vec::new(),
            callee: None,
        }
    }

    /// A `call` of `callee` with `args`.
    #[must_use]
    pub fn call(callee: impl Into<String>, args: Vec<ValueId>) -> Instr {
        let callee = Some(callee.into());
        Instr {
            callee,
            ..Instr::simple(Opcode::Call, args)
        }
    }

    /// `true` for a `call` of one of the [`MATH_INTRINSICS`], the only
    /// calls every purity check treats as side-effect free.
    #[must_use]
    pub fn is_math_call(&self) -> bool {
        self.opcode == Opcode::Call
            && self
                .callee
                .as_deref()
                .is_some_and(|c| MATH_INTRINSICS.iter().any(|&(name, _)| name == c))
    }
}

/// The math intrinsics, with their arities: pure functions of `double`
/// arguments returning `double`. The frontend accepts calls to exactly
/// these, and the interpreter evaluates them.
pub const MATH_INTRINSICS: &[(&str, usize)] = &[
    ("sqrt", 1),
    ("fabs", 1),
    ("exp", 1),
    ("log", 1),
    ("sin", 1),
    ("cos", 1),
    ("pow", 2),
    ("fmin", 2),
    ("fmax", 2),
];

/// What a value is: argument, constant or instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueKind {
    /// The `index`-th formal parameter of the function.
    Argument {
        /// Zero-based parameter position.
        index: usize,
    },
    /// An integer constant (also used for `i1` with values 0/1).
    ConstInt(i64),
    /// A floating-point constant; bit pattern stored exactly.
    ConstFloat(f64),
    /// An instruction; the payload holds opcode and operands.
    Instr(Instr),
}

/// Where [`Function::place`] puts an instruction inside its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPoint {
    /// At the end of the block.
    End,
    /// After the phis at the block head.
    AfterPhis,
    /// In front of the terminator, or at the end while the block has none.
    BeforeTerminator,
}

/// A value in the function arena.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueData {
    /// Result type (`Void` for non-producing instructions).
    pub ty: Type,
    /// The value payload.
    pub kind: ValueKind,
    /// Optional source-level name, kept for readable printing
    /// (`%j`, `%a_load`, ...).
    pub name: Option<String>,
}

/// A basic block: an ordered list of instruction value ids, the last of
/// which is a terminator once the block is finished.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockData {
    /// Instructions in execution order.
    pub instrs: Vec<ValueId>,
    /// Optional label, for readable printing.
    pub name: Option<String>,
}

/// A function: a flat value arena plus basic blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Return type.
    pub ret_ty: Type,
    /// Value ids of the formal parameters, in order.
    pub params: Vec<ValueId>,
    /// All values (arguments, constants, instructions).
    values: Vec<ValueData>,
    /// All basic blocks; `BlockId(0)` is the entry block.
    blocks: Vec<BlockData>,
    /// Interned constants: the first arena slot holding each `(type,
    /// constant)`. Constants enter the arena only through
    /// [`Function::const_int`] and [`Function::const_float`] and the arena
    /// never shrinks, so the table is a function of `values`.
    consts: HashMap<(Type, ConstBits), ValueId>,
}

/// The interning key of a constant: integers by value, floats by bit
/// pattern (so `0.0` and `-0.0` stay distinct).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstBits {
    Int(i64),
    Float(u64),
}

impl ConstBits {
    fn of(kind: &ValueKind) -> Option<ConstBits> {
        match *kind {
            ValueKind::ConstInt(c) => Some(ConstBits::Int(c)),
            ValueKind::ConstFloat(c) => Some(ConstBits::Float(c.to_bits())),
            _ => None,
        }
    }
}

impl Function {
    /// Creates an empty function with the given parameter types. The entry
    /// block (`BlockId(0)`) is created immediately.
    #[must_use]
    pub fn new(name: impl Into<String>, params: &[(String, Type)], ret_ty: Type) -> Function {
        let mut f = Function {
            name: name.into(),
            ret_ty,
            params: Vec::new(),
            values: Vec::new(),
            blocks: vec![BlockData {
                instrs: Vec::new(),
                name: Some("entry".to_owned()),
            }],
            consts: HashMap::new(),
        };
        for (i, (pname, pty)) in params.iter().enumerate() {
            let id = f.push_value(ValueData {
                ty: *pty,
                kind: ValueKind::Argument { index: i },
                name: Some(pname.clone()),
            });
            f.params.push(id);
        }
        f
    }

    fn push_value(&mut self, data: ValueData) -> ValueId {
        let id = ValueId(u32::try_from(self.values.len()).expect("function too large"));
        self.values.push(data);
        id
    }

    /// Number of values in the arena (the solver's raw search domain size).
    #[must_use]
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of basic blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over all value ids.
    pub fn value_ids(&self) -> impl Iterator<Item = ValueId> + '_ {
        (0..self.values.len()).map(|i| ValueId(i as u32))
    }

    /// Iterates over all block ids in creation order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(|i| BlockId(i as u32))
    }

    /// Immutable access to a value.
    #[must_use]
    pub fn value(&self, id: ValueId) -> &ValueData {
        &self.values[id.0 as usize]
    }

    /// Mutable access to a value.
    pub fn value_mut(&mut self, id: ValueId) -> &mut ValueData {
        &mut self.values[id.0 as usize]
    }

    /// Immutable access to a block.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &BlockData {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        &mut self.blocks[id.0 as usize]
    }

    /// The instruction payload of `id`, or `None` if `id` is not an
    /// instruction.
    #[must_use]
    pub fn instr(&self, id: ValueId) -> Option<&Instr> {
        match &self.value(id).kind {
            ValueKind::Instr(i) => Some(i),
            _ => None,
        }
    }

    /// Mutable instruction payload.
    pub fn instr_mut(&mut self, id: ValueId) -> Option<&mut Instr> {
        match &mut self.value_mut(id).kind {
            ValueKind::Instr(i) => Some(i),
            _ => None,
        }
    }

    /// The opcode of `id` if it is an instruction.
    #[must_use]
    pub fn opcode(&self, id: ValueId) -> Option<Opcode> {
        self.instr(id).map(|i| i.opcode)
    }

    /// `true` if `id` is an instruction.
    #[must_use]
    pub fn is_instruction(&self, id: ValueId) -> bool {
        matches!(self.value(id).kind, ValueKind::Instr(_))
    }

    /// `true` if `id` is an integer or float constant.
    #[must_use]
    pub fn is_constant(&self, id: ValueId) -> bool {
        matches!(
            self.value(id).kind,
            ValueKind::ConstInt(_) | ValueKind::ConstFloat(_)
        )
    }

    /// `true` if `id` is a formal parameter.
    #[must_use]
    pub fn is_argument(&self, id: ValueId) -> bool {
        matches!(self.value(id).kind, ValueKind::Argument { .. })
    }

    /// The block containing instruction `id`, found by scanning. Prefer
    /// [`crate::analysis::Layout`] for repeated queries.
    #[must_use]
    pub fn find_block_of(&self, id: ValueId) -> Option<BlockId> {
        self.block_ids()
            .find(|&b| self.block(b).instrs.contains(&id))
    }

    /// Creates a new empty basic block and returns its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(u32::try_from(self.blocks.len()).expect("too many blocks"));
        self.blocks.push(BlockData {
            instrs: Vec::new(),
            name: Some(name.into()),
        });
        id
    }

    /// Interns an integer constant of the given type (deduplicated).
    pub fn const_int(&mut self, ty: Type, v: i64) -> ValueId {
        self.intern(ty, ConstBits::Int(v), ValueKind::ConstInt(v))
    }

    /// Interns a floating-point constant of the given type (deduplicated,
    /// by bit pattern).
    pub fn const_float(&mut self, ty: Type, v: f64) -> ValueId {
        self.intern(ty, ConstBits::Float(v.to_bits()), ValueKind::ConstFloat(v))
    }

    /// The slot of an interned constant, creating it on first use: the
    /// same id a scan of the arena for the first equal constant returns.
    fn intern(&mut self, ty: Type, bits: ConstBits, kind: ValueKind) -> ValueId {
        if let Some(&id) = self.consts.get(&(ty, bits)) {
            debug_assert!(
                self.value(id).ty == ty && ConstBits::of(&self.value(id).kind) == Some(bits),
                "constant slot {id} was rewritten after interning"
            );
            return id;
        }
        let id = self.push_value(ValueData {
            ty,
            kind,
            name: None,
        });
        self.consts.insert((ty, bits), id);
        id
    }

    /// Appends an instruction to `block` and returns its value id.
    pub fn append(&mut self, block: BlockId, ty: Type, instr: Instr) -> ValueId {
        self.insert(block, InsertPoint::End, ty, instr)
    }

    /// Appends a simple (non-control, non-phi) instruction.
    pub fn append_simple(
        &mut self,
        block: BlockId,
        ty: Type,
        opcode: Opcode,
        operands: Vec<ValueId>,
    ) -> ValueId {
        self.append(block, ty, Instr::simple(opcode, operands))
    }

    /// Adds a `phi` with no incoming edges yet (see
    /// [`Function::add_phi_incoming`]) after the block's other phis.
    pub fn append_phi(&mut self, block: BlockId, ty: Type) -> ValueId {
        let phi = Instr::simple(Opcode::Phi, Vec::new());
        self.insert(block, InsertPoint::AfterPhis, ty, phi)
    }

    /// Creates an instruction and places it in `block` at `at`; see
    /// [`Function::place`].
    pub fn insert(&mut self, block: BlockId, at: InsertPoint, ty: Type, instr: Instr) -> ValueId {
        let id = self.push_value(ValueData {
            ty,
            kind: ValueKind::Instr(instr),
            name: None,
        });
        self.place(block, at, id);
        id
    }

    /// Places the instruction `v`, which no block holds, in `block` at
    /// `at`. The builders and the passes place through here: appends,
    /// phis, inserts in front of a terminator and LICM's moves into a
    /// preheader.
    pub fn place(&mut self, block: BlockId, at: InsertPoint, v: ValueId) {
        let instrs = &self.blocks[block.0 as usize].instrs;
        let pos = match at {
            InsertPoint::End => None,
            InsertPoint::AfterPhis => instrs
                .iter()
                .position(|&i| self.opcode(i) != Some(Opcode::Phi)),
            InsertPoint::BeforeTerminator => self.terminator(block).map(|_| instrs.len() - 1),
        };
        let instrs = &mut self.blocks[block.0 as usize].instrs;
        instrs.insert(pos.unwrap_or(instrs.len()), v);
    }

    /// Adds an incoming (value, predecessor-block) pair to a phi.
    ///
    /// # Panics
    /// Panics if `phi` is not a phi instruction.
    pub fn add_phi_incoming(&mut self, phi: ValueId, value: ValueId, from: BlockId) {
        let instr = self
            .instr_mut(phi)
            .expect("add_phi_incoming: not an instruction");
        assert_eq!(instr.opcode, Opcode::Phi, "add_phi_incoming: not a phi");
        instr.operands.push(value);
        instr.incoming.push(from);
    }

    /// Appends an unconditional branch.
    pub fn append_br(&mut self, block: BlockId, target: BlockId) -> ValueId {
        let targets = vec![target];
        let br = Instr {
            targets,
            ..Instr::simple(Opcode::Br, Vec::new())
        };
        self.append(block, Type::Void, br)
    }

    /// Appends a conditional branch (`on_true` taken when `cond` is 1).
    pub fn append_condbr(
        &mut self,
        block: BlockId,
        cond: ValueId,
        on_true: BlockId,
        on_false: BlockId,
    ) -> ValueId {
        let targets = vec![on_true, on_false];
        let br = Instr {
            targets,
            ..Instr::simple(Opcode::CondBr, vec![cond])
        };
        self.append(block, Type::Void, br)
    }

    /// Appends a return (with optional value).
    pub fn append_ret(&mut self, block: BlockId, value: Option<ValueId>) -> ValueId {
        let ret = Instr::simple(Opcode::Ret, value.into_iter().collect());
        self.append(block, Type::Void, ret)
    }

    /// Appends a call to `callee`.
    pub fn append_call(
        &mut self,
        block: BlockId,
        ty: Type,
        callee: impl Into<String>,
        args: Vec<ValueId>,
    ) -> ValueId {
        self.append(block, ty, Instr::call(callee, args))
    }

    /// The terminator instruction of `block`, if the block is terminated.
    #[must_use]
    pub fn terminator(&self, block: BlockId) -> Option<ValueId> {
        let last = *self.block(block).instrs.last()?;
        let op = self.opcode(last)?;
        op.is_terminator().then_some(last)
    }

    /// Successor blocks of `block`: its terminator's targets, in order
    /// (empty for `ret`-terminated blocks).
    #[must_use]
    pub fn successors(&self, block: BlockId) -> &[BlockId] {
        match self.terminator(block).and_then(|t| self.instr(t)) {
            Some(i) => &i.targets,
            None => &[],
        }
    }

    /// Appends a formal parameter (used by kernel outlining when free
    /// scalars are promoted into the signature). Returns the new argument
    /// value.
    pub fn add_param(&mut self, name: &str, ty: Type) -> ValueId {
        let index = self.params.len();
        let id = self.push_value(ValueData {
            ty,
            kind: ValueKind::Argument { index },
            name: Some(name.to_owned()),
        });
        self.params.push(id);
        id
    }

    /// Rebuilds the block vector keeping only blocks for which `keep`
    /// holds, and rewrites all branch targets and phi incoming blocks with
    /// `remap` (which must map every *kept* old id to its new id).
    ///
    /// The caller is responsible for having removed control references to
    /// dropped blocks first (see `pass::remove_unreachable_blocks`).
    pub fn retain_blocks(
        &mut self,
        keep: impl Fn(BlockId) -> bool,
        remap: impl Fn(BlockId) -> BlockId,
    ) {
        let old_blocks = std::mem::take(&mut self.blocks);
        for (i, b) in old_blocks.into_iter().enumerate() {
            if keep(BlockId(i as u32)) {
                self.blocks.push(b);
            }
        }
        let kept: std::collections::HashSet<ValueId> = self
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter().copied())
            .collect();
        for idx in 0..self.values.len() {
            let id = ValueId(idx as u32);
            if !kept.contains(&id) {
                // Retire dropped instructions so ghost operands vanish.
                if let ValueKind::Instr(instr) = &mut self.values[idx].kind {
                    instr.operands.clear();
                    instr.incoming.clear();
                    instr.targets.clear();
                }
                continue;
            }
            if let ValueKind::Instr(instr) = &mut self.values[idx].kind {
                for t in &mut instr.targets {
                    *t = remap(*t);
                }
                for inb in &mut instr.incoming {
                    *inb = remap(*inb);
                }
            }
        }
    }

    /// Looks up a value by its source name (`%name`), or `None` when no
    /// value carries that name.
    ///
    /// This is the safe boundary for name-based lookups (the replacement
    /// phase and tests used to open-code this with a panic on a missing
    /// name): callers decide how a miss is handled.
    #[must_use]
    pub fn named(&self, name: &str) -> Option<ValueId> {
        self.value_ids()
            .find(|&v| self.value(v).name.as_deref() == Some(name))
    }

    /// A human-readable name for a value: its source name if any, else `v<n>`.
    #[must_use]
    pub fn display_name(&self, id: ValueId) -> String {
        match &self.value(id).name {
            Some(n) => format!("%{n}"),
            None => format!("%{}", id.0),
        }
    }

    /// Sets the display name of a value (builder convenience).
    pub fn set_name(&mut self, id: ValueId, name: impl Into<String>) {
        self.value_mut(id).name = Some(name.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Function {
        // int f(int a, int b) { return a*b + a; }
        let mut f = Function::new(
            "f",
            &[("a".into(), Type::I32), ("b".into(), Type::I32)],
            Type::I32,
        );
        let entry = BlockId(0);
        let (a, b) = (f.params[0], f.params[1]);
        let m = f.append_simple(entry, Type::I32, Opcode::Mul, vec![a, b]);
        let s = f.append_simple(entry, Type::I32, Opcode::Add, vec![m, a]);
        f.append_ret(entry, Some(s));
        f
    }

    #[test]
    fn named_lookup_is_an_option_not_a_panic() {
        let mut f = sample();
        assert_eq!(f.named("a"), Some(f.params[0]));
        assert_eq!(f.named("no_such_value"), None);
        let m = f.block(BlockId(0)).instrs[0];
        f.set_name(m, "prod");
        assert_eq!(f.named("prod"), Some(m));
    }

    #[test]
    fn arena_and_kinds() {
        let f = sample();
        assert_eq!(f.params.len(), 2);
        assert!(f.is_argument(f.params[0]));
        assert!(!f.is_instruction(f.params[0]));
        let entry = BlockId(0);
        assert_eq!(f.block(entry).instrs.len(), 3);
        let mul = f.block(entry).instrs[0];
        assert_eq!(f.opcode(mul), Some(Opcode::Mul));
        assert!(f.is_instruction(mul));
    }

    #[test]
    fn constants_are_interned() {
        let mut f = sample();
        let c1 = f.const_int(Type::I64, 42);
        let c2 = f.const_int(Type::I64, 42);
        let c3 = f.const_int(Type::I32, 42);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
        let f1 = f.const_float(Type::F64, 0.0);
        let f2 = f.const_float(Type::F64, -0.0);
        assert_ne!(f1, f2, "0.0 and -0.0 are distinct bit patterns");
    }

    #[test]
    fn interning_returns_the_first_equal_constant_of_a_scan() {
        let mut f = sample();
        let floats = [0.0, -0.0, f64::NAN, 1.5, 0.0, f64::NAN];
        let mut interned = Vec::new();
        for (k, &x) in floats.iter().enumerate() {
            let ty = if k % 2 == 0 { Type::F64 } else { Type::F32 };
            interned.push((ty, ValueKind::ConstFloat(x), f.const_float(ty, x)));
            let c = k as i64 % 3;
            interned.push((Type::I64, ValueKind::ConstInt(c), f.const_int(Type::I64, c)));
            let a = f.params[0];
            f.append_simple(BlockId(0), Type::I32, Opcode::Add, vec![a, a]);
        }
        let mut g = f.clone();
        for (ty, kind, id) in interned {
            let bits = ConstBits::of(&kind);
            let scan = f
                .value_ids()
                .find(|&v| f.value(v).ty == ty && ConstBits::of(&f.value(v).kind) == bits);
            assert_eq!(Some(id), scan, "{ty:?} {kind:?}");
            let again = match kind {
                ValueKind::ConstFloat(x) => g.const_float(ty, x),
                ValueKind::ConstInt(c) => g.const_int(ty, c),
                _ => unreachable!(),
            };
            assert_eq!(again, id, "a clone interns to the same slot");
        }
        assert_eq!(g.num_values(), f.num_values());
    }

    #[test]
    fn terminator_and_successors() {
        let mut f = Function::new("g", &[], Type::Void);
        let entry = BlockId(0);
        let next = f.add_block("next");
        f.append_br(entry, next);
        f.append_ret(next, None);
        assert_eq!(f.successors(entry), &[next]);
        assert!(f.successors(next).is_empty());
        assert!(f.terminator(entry).is_some());
    }

    #[test]
    fn phis_stay_grouped_at_block_head() {
        let mut f = Function::new("h", &[], Type::Void);
        let entry = BlockId(0);
        let header = f.add_block("header");
        f.append_br(entry, header);
        let c0 = f.const_int(Type::I64, 0);
        let one = f.const_int(Type::I64, 1);
        let phi1 = f.append_phi(header, Type::I64);
        let add = f.append_simple(header, Type::I64, Opcode::Add, vec![phi1, one]);
        let phi2 = f.append_phi(header, Type::I64);
        f.add_phi_incoming(phi1, c0, entry);
        f.add_phi_incoming(phi2, add, entry);
        let instrs = &f.block(header).instrs;
        assert_eq!(instrs[0], phi1);
        assert_eq!(
            instrs[1], phi2,
            "late phi inserted before non-phi instructions"
        );
        assert_eq!(instrs[2], add);
    }

    #[test]
    fn placement_goes_before_the_terminator_or_at_the_end() {
        let mut f = Function::new("p", &[("a".into(), Type::I64)], Type::I64);
        let entry = BlockId(0);
        let a = f.params[0];
        let at = InsertPoint::BeforeTerminator;
        // No terminator yet: at the end.
        let x = f.insert(entry, at, Type::I64, Instr::simple(Opcode::Add, vec![a, a]));
        let y = f.insert(entry, at, Type::I64, Instr::simple(Opcode::Mul, vec![x, a]));
        let ret = f.append_ret(entry, Some(y));
        // Terminated: in front of the terminator.
        let z = f.insert(entry, at, Type::I64, Instr::simple(Opcode::Sub, vec![a, a]));
        assert_eq!(f.block(entry).instrs, vec![x, y, z, ret]);
        // Moving an existing instruction: take it out, then place it.
        f.block_mut(entry).instrs.retain(|&v| v != x);
        let next = f.add_block("next");
        f.append_br(next, entry);
        f.place(next, at, x);
        assert_eq!(f.block(next).instrs[0], x);
        assert_eq!(f.terminator(next), f.block(next).instrs.last().copied());
    }

    #[test]
    fn placement_after_phis_skips_the_phis() {
        let mut f = Function::new("q", &[], Type::Void);
        let header = f.add_block("header");
        let one = f.const_int(Type::I64, 1);
        let phi = f.append_phi(header, Type::I64);
        let add = f.append_simple(header, Type::I64, Opcode::Add, vec![phi, one]);
        let at = InsertPoint::AfterPhis;
        let s = f.insert(
            header,
            at,
            Type::I64,
            Instr::simple(Opcode::Mul, vec![phi, one]),
        );
        assert_eq!(f.block(header).instrs, vec![phi, s, add]);
        let empty = f.add_block("empty");
        let t = f.insert(
            empty,
            at,
            Type::I64,
            Instr::simple(Opcode::Mul, vec![one, one]),
        );
        assert_eq!(f.block(empty).instrs, vec![t]);
    }

    #[test]
    fn icmp_swapped_is_involutive_on_strict() {
        assert_eq!(ICmpPred::Slt.swapped(), ICmpPred::Sgt);
        assert_eq!(ICmpPred::Slt.swapped().swapped(), ICmpPred::Slt);
        assert_eq!(ICmpPred::Eq.swapped(), ICmpPred::Eq);
    }

    #[test]
    fn opcode_classes() {
        assert!(Opcode::Br.is_branch());
        assert!(Opcode::CondBr.is_terminator());
        assert!(!Opcode::Ret.is_branch());
        assert!(Opcode::FMul.is_pure_arith());
        assert!(!Opcode::Load.is_pure_arith());
        assert!(Opcode::Load.touches_memory());
        assert!(!Opcode::Add.touches_memory());
    }
}

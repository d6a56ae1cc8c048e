//! AST → SSA lowering.
//!
//! Scalars are lowered with on-the-fly SSA construction (Braun et al.,
//! "Simple and Efficient Construction of Static Single Assignment Form",
//! CC'13): each block keeps a per-variable definition map, loop headers are
//! left unsealed until their latch exists, and trivial phis are removed as
//! they are discovered. The result is the same canonical loop shape that
//! clang -O2 (mem2reg + loop rotation) produces, which is the shape the IDL
//! idiom library is written against:
//!
//! ```text
//! preheader:  ...init...            br header
//! header:     %i = phi [init, preheader], [%i.next, latch]
//!             %cond = icmp slt %i, %n
//!             br %cond, body, exit
//! body:       ...                    br latch
//! latch:      %i.next = add %i, 1    br header
//! ```
//!
//! Local arrays are `alloca`s indexed through single-index `gep`s
//! (multi-dimensional arrays are flattened row-major, as clang does for
//! constant-size arrays after instcombine).

use crate::ast::*;
use crate::pretty::type_name;
use crate::CompileError;
use ssair::{
    BlockId, FCmpPred, Function, ICmpPred, InsertPoint, Instr, Module, Opcode, Type, ValueId,
    MATH_INTRINSICS,
};
use std::collections::{HashMap, HashSet};

type Result<T> = std::result::Result<T, CompileError>;

/// Lowers a parsed program to an SSA module.
pub fn lower_program(prog: &Program, name: &str) -> Result<Module> {
    let mut module = Module::new(name);
    let signatures: HashMap<String, (Vec<Type>, Type)> = prog
        .funcs
        .iter()
        .map(|f| {
            let params = f.params.iter().map(|&(_, t)| t).collect();
            (f.name.clone(), (params, f.ret))
        })
        .collect();
    for func in &prog.funcs {
        let lowered = FuncLower::new(func, &signatures)?.run(func)?;
        module.add_function(lowered);
    }
    Ok(module)
}

#[derive(Debug, Clone)]
enum VarKind {
    /// SSA scalar (including pointer-typed parameters).
    Scalar(Type),
    /// Local array backed by an alloca; dims in row-major order.
    Array {
        alloca: ValueId,
        elem: Type,
        dims: Vec<usize>,
    },
}

/// Dense id of a declared variable, in declaration order.
type VarId = usize;

/// A declared variable: its unique internal name (the source name, plus a
/// `.N` suffix when an outer declaration already took it) and its kind.
struct Var {
    name: String,
    kind: VarKind,
}

/// A phi placed by SSA construction and not (yet) found trivial.
struct LivePhi {
    block: BlockId,
    /// Phis that take this one as an incoming value, possibly repeated.
    users: Vec<ValueId>,
}

struct FuncLower<'a> {
    f: Function,
    signatures: &'a HashMap<String, (Vec<Type>, Type)>,
    /// Scope stack: source name → variable.
    scopes: Vec<HashMap<String, VarId>>,
    vars: Vec<Var>,
    /// Source names declared so far in the function.
    declared: HashSet<String>,
    /// SSA defs: the value of a variable at the end of a block. It may
    /// name a removed trivial phi; [`FuncLower::resolve`] forwards it.
    defs: HashMap<(BlockId, VarId), ValueId>,
    /// Predecessors of each block in ascending order, kept up to date as
    /// branches are appended.
    preds: Vec<Vec<BlockId>>,
    sealed: Vec<bool>,
    /// Per block: the phis placed while it was unsealed.
    incomplete: Vec<Vec<(VarId, ValueId)>>,
    /// By value id: the phis placed by SSA construction and still live.
    phis: Vec<Option<LivePhi>>,
    /// By value id: the value that replaces a removed trivial phi.
    /// Operands are rewritten through it once, when the function is
    /// finished.
    replaced: Vec<Option<ValueId>>,
    /// Current insertion block; `None` after a terminator.
    cur: Option<BlockId>,
    unique: u32,
    ret: Type,
}

impl<'a> FuncLower<'a> {
    fn new(def: &FuncDef, signatures: &'a HashMap<String, (Vec<Type>, Type)>) -> Result<Self> {
        let f = Function::new(def.name.clone(), &def.params, def.ret);
        let mut this = FuncLower {
            f,
            signatures,
            scopes: vec![HashMap::new()],
            vars: Vec::new(),
            declared: HashSet::new(),
            defs: HashMap::new(),
            preds: vec![Vec::new()],
            sealed: vec![true], // entry block has no predecessors
            incomplete: vec![Vec::new()],
            phis: Vec::new(),
            replaced: Vec::new(),
            cur: Some(BlockId(0)),
            unique: 0,
            ret: def.ret,
        };
        for (i, (pname, pty)) in def.params.iter().enumerate() {
            let internal = this.fresh_name(pname, def.line)?;
            let var = this.bind(pname, internal, VarKind::Scalar(*pty));
            let arg = this.f.params[i];
            this.write_var(var, BlockId(0), arg);
        }
        Ok(this)
    }

    fn run(mut self, def: &FuncDef) -> Result<Function> {
        self.stmts(&def.body)?;
        if let Some(b) = self.cur {
            if self.ret == Type::Void {
                self.f.append_ret(b, None);
            } else {
                // Falling off the end of a value-returning function is
                // undefined behaviour in C; return zero for determinism.
                let zero = self.zero_const(self.ret);
                self.f.append_ret(b, Some(zero));
            }
        }
        if self.replaced.iter().any(Option::is_some) {
            for v in self.f.value_ids().collect::<Vec<_>>() {
                let Some(i) = self.f.instr_mut(v) else {
                    continue;
                };
                let mut ops = std::mem::take(&mut i.operands);
                for op in &mut ops {
                    *op = self.resolve(*op);
                }
                self.f.instr_mut(v).expect("instruction").operands = ops;
            }
        }
        Ok(self.f)
    }

    // ----- naming & scopes -----

    /// The internal name for a declaration of `name` in the current scope.
    fn fresh_name(&mut self, name: &str, line: usize) -> Result<String> {
        let scope = self.scopes.last().expect("scope stack never empty");
        if scope.contains_key(name) {
            return Err(CompileError {
                line,
                message: format!("redeclaration of {name:?} in the same scope"),
            });
        }
        Ok(if self.declared.insert(name.to_owned()) {
            name.to_owned()
        } else {
            self.unique += 1;
            format!("{name}.{}", self.unique)
        })
    }

    /// Declares `name` in the current scope as a new variable.
    fn bind(&mut self, name: &str, internal: String, kind: VarKind) -> VarId {
        let var = self.vars.len();
        self.vars.push(Var {
            name: internal,
            kind,
        });
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        scope.insert(name.to_owned(), var);
        var
    }

    fn resolve_var(&self, name: &str, line: usize) -> Result<VarId> {
        for scope in self.scopes.iter().rev() {
            if let Some(&var) = scope.get(name) {
                return Ok(var);
            }
        }
        Err(CompileError {
            line,
            message: format!("use of undeclared variable {name:?}"),
        })
    }

    // ----- SSA construction (Braun et al.) -----

    fn scalar_type(&self, var: VarId) -> Type {
        match self.vars[var].kind {
            VarKind::Scalar(t) => t,
            VarKind::Array { .. } => unreachable!("arrays are not SSA variables"),
        }
    }

    fn write_var(&mut self, var: VarId, block: BlockId, value: ValueId) {
        self.defs.insert((block, var), value);
    }

    fn read_var(&mut self, var: VarId, block: BlockId) -> ValueId {
        match self.defs.get(&(block, var)) {
            Some(&v) => self.resolve(v),
            None => self.read_var_recursive(var, block),
        }
    }

    /// `v`, or what replaced it if it is a removed trivial phi. Compresses
    /// the forwarding path it walks.
    fn resolve(&mut self, v: ValueId) -> ValueId {
        let next = |r: &[Option<ValueId>], v: ValueId| r.get(v.0 as usize).copied().flatten();
        let mut end = v;
        while let Some(n) = next(&self.replaced, end) {
            end = n;
        }
        let mut at = v;
        while let Some(n) = next(&self.replaced, at) {
            self.replaced[at.0 as usize] = Some(end);
            at = n;
        }
        end
    }

    fn live_phi(&mut self, v: ValueId) -> Option<&mut LivePhi> {
        self.phis.get_mut(v.0 as usize)?.as_mut()
    }

    fn read_var_recursive(&mut self, var: VarId, block: BlockId) -> ValueId {
        let b = block.0 as usize;
        let val = if !self.sealed[b] {
            let phi = self.new_phi(var, block);
            self.incomplete[b].push((var, phi));
            phi
        } else if let [pred] = self.preds[b][..] {
            self.read_var(var, pred)
        } else {
            let phi = self.new_phi(var, block);
            self.write_var(var, block, phi);
            self.add_phi_operands(var, phi, block)
        };
        self.write_var(var, block, val);
        val
    }

    fn new_phi(&mut self, var: VarId, block: BlockId) -> ValueId {
        let ty = self.scalar_type(var);
        let phi = self.f.append_phi(block, ty);
        self.f.set_name(phi, self.vars[var].name.clone());
        let slot = phi.0 as usize;
        self.phis
            .resize_with(self.phis.len().max(slot + 1), || None);
        self.phis[slot] = Some(LivePhi {
            block,
            users: Vec::new(),
        });
        phi
    }

    fn add_phi_operands(&mut self, var: VarId, phi: ValueId, block: BlockId) -> ValueId {
        for pred in self.preds[block.0 as usize].clone() {
            let v = self.read_var(var, pred);
            self.f.add_phi_incoming(phi, v, pred);
            if let Some(p) = self.live_phi(v) {
                p.users.push(phi);
            }
        }
        self.try_remove_trivial_phi(phi)
    }

    fn try_remove_trivial_phi(&mut self, phi: ValueId) -> ValueId {
        if self.live_phi(phi).is_none() {
            return phi; // already removed further up the cascade
        }
        let operands = self.f.instr(phi).expect("phi").operands.clone();
        let mut same: Option<ValueId> = None;
        for op in operands {
            let op = self.resolve(op);
            if op == phi || Some(op) == same {
                continue;
            }
            if same.is_some() {
                return phi; // merges at least two distinct values
            }
            same = Some(op);
        }
        let Some(same) = same else { return phi };
        let removed = self.phis[phi.0 as usize].take().expect("live phi");
        self.f.block_mut(removed.block).instrs.retain(|&v| v != phi);
        let payload = self.f.instr_mut(phi).expect("phi");
        payload.operands.clear();
        payload.incoming.clear();
        let slot = phi.0 as usize;
        self.replaced
            .resize(self.replaced.len().max(slot + 1), None);
        self.replaced[slot] = Some(same);
        // The users now use `same`; one of them may have become trivial in
        // turn. Visit them in value order, as a scan of the function would.
        let mut users = removed.users;
        if let Some(p) = self.live_phi(same) {
            p.users.extend_from_slice(&users);
        }
        users.sort_unstable();
        users.dedup();
        for u in users {
            if u != phi {
                self.try_remove_trivial_phi(u);
            }
        }
        same
    }

    fn seal_block(&mut self, block: BlockId) {
        let b = block.0 as usize;
        if self.sealed[b] {
            return;
        }
        self.sealed[b] = true;
        for (var, phi) in std::mem::take(&mut self.incomplete[b]) {
            self.add_phi_operands(var, phi, block);
        }
    }

    fn new_block(&mut self, name: &str, sealed: bool) -> BlockId {
        let b = self.f.add_block(name);
        self.preds.push(Vec::new());
        self.sealed.push(sealed);
        self.incomplete.push(Vec::new());
        debug_assert_eq!(self.sealed.len(), self.f.num_blocks());
        b
    }

    fn add_edge(&mut self, from: BlockId, to: BlockId) {
        let preds = &mut self.preds[to.0 as usize];
        if let Err(at) = preds.binary_search(&from) {
            preds.insert(at, from);
        }
    }

    fn br(&mut self, from: BlockId, to: BlockId) {
        self.f.append_br(from, to);
        self.add_edge(from, to);
    }

    fn condbr(&mut self, from: BlockId, c: ValueId, on_true: BlockId, on_false: BlockId) {
        self.f.append_condbr(from, c, on_true, on_false);
        self.add_edge(from, on_true);
        self.add_edge(from, on_false);
    }

    /// Points the false edge of the conditional branch ending `from` at
    /// `to`. The old false target stays a predecessor's target: `if`
    /// lowering starts both edges at the `then` block.
    fn retarget_false_edge(&mut self, from: BlockId, to: BlockId) {
        let condbr = self.f.terminator(from).expect("from ends in its condbr");
        let targets = &mut self.f.instr_mut(condbr).expect("condbr").targets;
        debug_assert_eq!(targets[0], targets[1], "the false edge is patched once");
        targets[1] = to;
        self.add_edge(from, to);
    }

    // ----- constants & conversions -----

    fn zero_const(&mut self, ty: Type) -> ValueId {
        if ty.is_float() {
            self.f.const_float(ty, 0.0)
        } else {
            self.f.const_int(ty, 0)
        }
    }

    /// Converts `v` of type `from` to source type `to`, folding constants.
    /// `to` is never `i1`: no source spelling names it.
    fn convert(&mut self, v: ValueId, from: Type, to: Type, line: usize) -> Result<ValueId> {
        let b = self.block(line)?;
        // Constant folding first.
        match (&self.f.value(v).kind, to) {
            (&ssair::ValueKind::ConstInt(c), Type::I32 | Type::I64) => {
                return Ok(self.f.const_int(to, c));
            }
            (&ssair::ValueKind::ConstInt(c), Type::F32 | Type::F64) => {
                return Ok(self.f.const_float(to, c as f64));
            }
            (&ssair::ValueKind::ConstFloat(c), Type::F32 | Type::F64) => {
                let c = if to == Type::F32 { c as f32 as f64 } else { c };
                return Ok(self.f.const_float(to, c));
            }
            (&ssair::ValueKind::ConstFloat(c), Type::I32 | Type::I64) => {
                return Ok(self.f.const_int(to, c as i64));
            }
            _ => {}
        }
        if from == Type::I1 {
            // Bool → integer via zext (then to float if needed).
            if to.is_integer() {
                return Ok(self.f.append_simple(b, to, Opcode::ZExt, vec![v]));
            }
            let widened = self.f.append_simple(b, Type::I32, Opcode::ZExt, vec![v]);
            return self.convert(widened, Type::I32, to, line);
        }
        if from == to {
            return Ok(v);
        }
        let instr = match (from, to) {
            (Type::I32, Type::I64) => self.f.append_simple(b, to, Opcode::SExt, vec![v]),
            (Type::I64, Type::I32) => self.f.append_simple(b, to, Opcode::Trunc, vec![v]),
            (Type::I32 | Type::I64, Type::F32 | Type::F64) => {
                self.f.append_simple(b, to, Opcode::SIToFP, vec![v])
            }
            (Type::F32 | Type::F64, Type::I32 | Type::I64) => {
                self.f.append_simple(b, to, Opcode::FPToSI, vec![v])
            }
            (Type::F32, Type::F64) => self.f.append_simple(b, to, Opcode::FPExt, vec![v]),
            (Type::F64, Type::F32) => self.f.append_simple(b, to, Opcode::FPTrunc, vec![v]),
            _ if from.is_pointer() && to.is_pointer() => v, // pointer casts are free
            _ => {
                return Err(CompileError {
                    line,
                    message: format!("cannot convert {} to {}", type_name(from), type_name(to)),
                })
            }
        };
        Ok(instr)
    }

    /// The common type of a binary arithmetic operation (usual C
    /// conversions restricted to our types).
    fn common_type(a: Type, b: Type) -> Type {
        match (a, b) {
            (Type::F64, _) | (_, Type::F64) => Type::F64,
            (Type::F32, _) | (_, Type::F32) => Type::F32,
            (Type::I64, _) | (_, Type::I64) => Type::I64,
            _ => Type::I32,
        }
    }

    fn block(&self, line: usize) -> Result<BlockId> {
        self.cur.ok_or(CompileError {
            line,
            message: "statement is unreachable".into(),
        })
    }

    // ----- statements -----

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<()> {
        for s in stmts {
            if self.cur.is_none() {
                // Dead code after return — C allows it; skip.
                return Ok(());
            }
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<()> {
        match s {
            Stmt::Decl {
                name,
                ty,
                dims,
                init,
                line,
            } => self.decl(name, *ty, dims, init, *line),
            Stmt::Assign {
                target,
                op,
                value,
                line,
            } => self.assign(target, *op, value, *line),
            Stmt::Expr(e, line) => {
                self.expr(e, *line)?;
                Ok(())
            }
            Stmt::Return(e, line) => self.ret_stmt(e.as_ref(), *line),
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                self.stmts(stmts)?;
                self.scopes.pop();
                Ok(())
            }
            Stmt::If { cond, then, other } => self.if_stmt(cond, then, other),
            Stmt::While { cond, body } => self.loop_stmt(None, Some(cond), None, body),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                self.loop_stmt(None, cond.as_ref(), step.as_deref(), body)?;
                self.scopes.pop();
                Ok(())
            }
        }
    }

    fn decl(
        &mut self,
        name: &str,
        ty: Type,
        dims: &[usize],
        init: &Option<Expr>,
        line: usize,
    ) -> Result<()> {
        let internal = self.fresh_name(name, line)?;
        if dims.is_empty() {
            let var = self.bind(name, internal, VarKind::Scalar(ty));
            let value = match init {
                Some(e) => {
                    let (v, vty) = self.expr(e, line)?;
                    self.convert(v, vty, ty, line)?
                }
                None => self.zero_const(ty),
            };
            let b = self.block(line)?;
            self.write_var(var, b, value);
        } else {
            // The element count must fit the alloca's i64 operand.
            let total = dims
                .iter()
                .try_fold(1i64, |acc, &d| acc.checked_mul(i64::try_from(d).ok()?))
                .ok_or_else(|| CompileError {
                    line,
                    message: format!("array {name:?} has too many elements: {dims:?}"),
                })?;
            let count = self.f.const_int(Type::I64, total);
            // Allocas live in the entry block, like clang's.
            let entry = BlockId(0);
            let ptr_ty = ty.ptr_to();
            let alloca = Instr::simple(Opcode::Alloca, vec![count]);
            let alloca = self
                .f
                .insert(entry, InsertPoint::BeforeTerminator, ptr_ty, alloca);
            self.f.set_name(alloca, internal.clone());
            let kind = VarKind::Array {
                alloca,
                elem: ty,
                dims: dims.to_vec(),
            };
            self.bind(name, internal, kind);
            if init.is_some() {
                return Err(CompileError {
                    line,
                    message: "array initializers unsupported".into(),
                });
            }
        }
        Ok(())
    }

    /// Computes the address of `base[indices...]` and returns
    /// `(gep, element type)`.
    fn element_address(
        &mut self,
        base: &str,
        indices: &[Expr],
        line: usize,
    ) -> Result<(ValueId, Type)> {
        let var = self.resolve_var(base, line)?;
        match self.vars[var].kind {
            VarKind::Scalar(ty) => {
                let Some(elem) = ty.pointee() else {
                    return Err(CompileError {
                        line,
                        message: format!(
                            "cannot subscript non-pointer {base:?} of type {}",
                            type_name(ty)
                        ),
                    });
                };
                if indices.len() != 1 {
                    return Err(CompileError {
                        line,
                        message: format!("pointer {base:?} takes exactly one subscript"),
                    });
                }
                let (iv, ity) = self.expr(&indices[0], line)?;
                let idx = self.index_to_i64(iv, ity, line)?;
                let b = self.block(line)?;
                let ptr = self.read_var(var, b);
                let ptr_ty = self.f.value(ptr).ty;
                let gep = self.f.append_simple(b, ptr_ty, Opcode::Gep, vec![ptr, idx]);
                Ok((gep, elem))
            }
            VarKind::Array {
                alloca,
                elem,
                ref dims,
            } => {
                let rank = dims.len();
                if indices.len() != rank {
                    return Err(CompileError {
                        line,
                        message: format!(
                            "array {base:?} has {rank} dimensions, {} indices given",
                            indices.len()
                        ),
                    });
                }
                // Row-major flattening: ((i0*d1 + i1)*d2 + i2)...
                let mut flat: Option<ValueId> = None;
                for (k, idx_expr) in indices.iter().enumerate() {
                    let (iv, ity) = self.expr(idx_expr, line)?;
                    let idx = self.index_to_i64(iv, ity, line)?;
                    flat = Some(match flat {
                        None => idx,
                        Some(acc) => {
                            let b = self.block(line)?;
                            let extent = self.array_extent(var, k) as i64;
                            let dim = self.f.const_int(Type::I64, extent);
                            let scaled =
                                self.f
                                    .append_simple(b, Type::I64, Opcode::Mul, vec![acc, dim]);
                            self.f
                                .append_simple(b, Type::I64, Opcode::Add, vec![scaled, idx])
                        }
                    });
                }
                let idx = flat.expect("at least one index");
                let b = self.block(line)?;
                let ptr_ty = elem.ptr_to();
                let gep = self
                    .f
                    .append_simple(b, ptr_ty, Opcode::Gep, vec![alloca, idx]);
                Ok((gep, elem))
            }
        }
    }

    /// Extent `k` (row-major) of the local array `var`.
    fn array_extent(&self, var: VarId, k: usize) -> usize {
        match &self.vars[var].kind {
            VarKind::Array { dims, .. } => dims[k],
            VarKind::Scalar(_) => unreachable!("only arrays have extents"),
        }
    }

    fn index_to_i64(&mut self, v: ValueId, ty: Type, line: usize) -> Result<ValueId> {
        if ty.is_integer() {
            self.convert(v, ty, Type::I64, line)
        } else {
            Err(CompileError {
                line,
                message: format!("array index has type {}", type_name(ty)),
            })
        }
    }

    fn assign(
        &mut self,
        target: &LValue,
        op: Option<BinOp>,
        value: &Expr,
        line: usize,
    ) -> Result<()> {
        match target {
            LValue::Var(name) => {
                let var = self.resolve_var(name, line)?;
                if matches!(self.vars[var].kind, VarKind::Array { .. }) {
                    return Err(CompileError {
                        line,
                        message: format!("cannot assign to array {name:?}"),
                    });
                }
                let ty = self.scalar_type(var);
                let (new_value, vty) = match op {
                    None => self.expr(value, line)?,
                    Some(binop) => {
                        let b = self.block(line)?;
                        let old = self.read_var(var, b);
                        let (rhs, rty) = self.expr(value, line)?;
                        self.binary_values(binop, old, ty, rhs, rty, line)?
                    }
                };
                // Compound assignment on e.g. int keeps the variable's type.
                let final_value = self.convert(new_value, vty, ty, line)?;
                let b = self.block(line)?;
                self.write_var(var, b, final_value);
                if let Some(n) = self.f.value(final_value).name.clone() {
                    let _ = n; // keep any existing name
                } else {
                    let name = format!("{}.v", self.vars[var].name);
                    self.f.set_name(final_value, name);
                }
                Ok(())
            }
            LValue::Index { base, indices } => {
                let (addr, elem) = self.element_address(base, indices, line)?;
                let stored = match op {
                    None => {
                        let (v, vty) = self.expr(value, line)?;
                        self.convert(v, vty, elem, line)?
                    }
                    Some(binop) => {
                        let b = self.block(line)?;
                        let old = self.f.append_simple(b, elem, Opcode::Load, vec![addr]);
                        let (rhs, rty) = self.expr(value, line)?;
                        let (res, rty2) = self.binary_values(binop, old, elem, rhs, rty, line)?;
                        self.convert(res, rty2, elem, line)?
                    }
                };
                let b = self.block(line)?;
                self.f
                    .append_simple(b, Type::Void, Opcode::Store, vec![stored, addr]);
                Ok(())
            }
        }
    }

    fn ret_stmt(&mut self, e: Option<&Expr>, line: usize) -> Result<()> {
        let b = self.block(line)?;
        match (e, self.ret) {
            (None, Type::Void) => {
                self.f.append_ret(b, None);
            }
            (Some(e), ret_ty) if ret_ty != Type::Void => {
                let (v, vty) = self.expr(e, line)?;
                let v = self.convert(v, vty, ret_ty, line)?;
                let b = self.block(line)?;
                self.f.append_ret(b, Some(v));
            }
            _ => {
                return Err(CompileError {
                    line,
                    message: "return value does not match function return type".into(),
                })
            }
        }
        self.cur = None;
        Ok(())
    }

    fn if_stmt(&mut self, cond: &Expr, then: &[Stmt], other: &[Stmt]) -> Result<()> {
        let line = 0;
        let c = self.condition(cond, line)?;
        let b = self.block(line)?;
        let then_bb = self.new_block("if.then", true);
        // The false edge is patched below once we know whether an else block
        // or a merge block receives it (both targets temporarily point at
        // then_bb; duplicate targets to one block yield a single CFG edge).
        self.condbr(b, c, then_bb, then_bb);
        self.cur = Some(then_bb);
        self.scoped_stmts(then)?;
        let then_end = self.cur;
        let else_end = if other.is_empty() {
            None
        } else {
            let else_bb = self.new_block("if.else", true);
            self.retarget_false_edge(b, else_bb);
            self.cur = Some(else_bb);
            self.scoped_stmts(other)?;
            self.cur
        };
        let false_edge_needs_merge = other.is_empty();
        if then_end.is_none() && else_end.is_none() && !false_edge_needs_merge {
            // Both arms returned: no merge block exists.
            self.cur = None;
            return Ok(());
        }
        let merge_bb = self.new_block("if.end", false);
        if false_edge_needs_merge {
            self.retarget_false_edge(b, merge_bb);
        }
        if let Some(end) = then_end {
            self.br(end, merge_bb);
        }
        if let Some(end) = else_end {
            self.br(end, merge_bb);
        }
        self.seal_block(merge_bb);
        self.cur = Some(merge_bb);
        Ok(())
    }

    fn scoped_stmts(&mut self, stmts: &[Stmt]) -> Result<()> {
        self.scopes.push(HashMap::new());
        self.stmts(stmts)?;
        self.scopes.pop();
        Ok(())
    }

    /// Shared lowering of `while` (no step) and `for` (init already done).
    fn loop_stmt(
        &mut self,
        _unused: Option<()>,
        cond: Option<&Expr>,
        step: Option<&Stmt>,
        body: &[Stmt],
    ) -> Result<()> {
        let line = 0;
        let pre = self.block(line)?;
        let header = self.new_block("loop.header", false);
        self.br(pre, header);
        self.cur = Some(header);
        let c = match cond {
            Some(e) => self.condition(e, line)?,
            None => self.f.const_int(Type::I1, 1),
        };
        let header_end = self.block(line)?;
        let body_bb = self.new_block("loop.body", false);
        let latch = self.new_block("loop.latch", false);
        let exit = self.new_block("loop.exit", false);
        self.condbr(header_end, c, body_bb, exit);
        self.seal_block(body_bb); // single pred: the header chain
        self.cur = Some(body_bb);
        self.scoped_stmts(body)?;
        match self.cur {
            Some(end) => {
                self.br(end, latch);
            }
            None => {
                return Err(CompileError {
                    line,
                    message:
                        "loop body never reaches the loop latch (unconditional return inside loop)"
                            .into(),
                })
            }
        }
        self.seal_block(latch);
        self.cur = Some(latch);
        if let Some(s) = step {
            self.scopes.push(HashMap::new());
            self.stmt(s)?;
            self.scopes.pop();
        }
        let latch_end = self.block(line)?;
        self.br(latch_end, header);
        self.seal_block(header);
        self.seal_block(exit);
        self.cur = Some(exit);
        Ok(())
    }

    // ----- expressions -----

    fn condition(&mut self, e: &Expr, line: usize) -> Result<ValueId> {
        let (v, ty) = self.expr(e, line)?;
        match ty {
            // `i1` is an integer too: this arm must come first.
            Type::I1 => Ok(v),
            c if c.is_integer() => {
                let b = self.block(line)?;
                let zero = self.f.const_int(c, 0);
                Ok(self
                    .f
                    .append_simple(b, Type::I1, Opcode::ICmp(ICmpPred::Ne), vec![v, zero]))
            }
            c if c.is_float() => {
                let b = self.block(line)?;
                let zero = self.f.const_float(c, 0.0);
                Ok(self
                    .f
                    .append_simple(b, Type::I1, Opcode::FCmp(FCmpPred::One), vec![v, zero]))
            }
            other => Err(CompileError {
                line,
                message: format!("condition has non-scalar type {}", type_name(other)),
            }),
        }
    }

    fn binary_values(
        &mut self,
        op: BinOp,
        lv: ValueId,
        lt: Type,
        rv: ValueId,
        rt: Type,
        line: usize,
    ) -> Result<(ValueId, Type)> {
        let lc = self.as_arith(lt, line)?;
        let rc = self.as_arith(rt, line)?;
        let common = Self::common_type(lc, rc);
        let lv = self.convert(lv, lt, common, line)?;
        let rv = self.convert(rv, rt, common, line)?;
        let b = self.block(line)?;
        let opcode = match (op, common.is_float()) {
            (BinOp::Add, false) => Opcode::Add,
            (BinOp::Sub, false) => Opcode::Sub,
            (BinOp::Mul, false) => Opcode::Mul,
            (BinOp::Div, false) => Opcode::SDiv,
            (BinOp::Rem, false) => Opcode::SRem,
            (BinOp::Add, true) => Opcode::FAdd,
            (BinOp::Sub, true) => Opcode::FSub,
            (BinOp::Mul, true) => Opcode::FMul,
            (BinOp::Div, true) => Opcode::FDiv,
            (BinOp::Rem, true) => {
                return Err(CompileError {
                    line,
                    message: "% is not defined for floating types".into(),
                })
            }
        };
        let v = self.f.append_simple(b, common, opcode, vec![lv, rv]);
        Ok((v, common))
    }

    fn as_arith(&self, ty: Type, line: usize) -> Result<Type> {
        match ty {
            // `i1` is an integer too: this arm must come first.
            Type::I1 => Ok(Type::I32),
            c if c.is_integer() || c.is_float() => Ok(c),
            other => Err(CompileError {
                line,
                message: format!("{} is not an arithmetic type", type_name(other)),
            }),
        }
    }

    fn expr(&mut self, e: &Expr, line: usize) -> Result<(ValueId, Type)> {
        match e {
            Expr::IntLit(v) => Ok((self.f.const_int(Type::I32, *v), Type::I32)),
            Expr::FloatLit(v, is_f32) => {
                let ty = if *is_f32 { Type::F32 } else { Type::F64 };
                Ok((self.f.const_float(ty, *v), ty))
            }
            Expr::Var(name) => {
                let var = self.resolve_var(name, line)?;
                match self.vars[var].kind {
                    VarKind::Scalar(ty) => {
                        let b = self.block(line)?;
                        let v = self.read_var(var, b);
                        Ok((v, ty))
                    }
                    VarKind::Array { alloca, elem, .. } => {
                        // Array decays to pointer (single-dim only).
                        Ok((alloca, elem.ptr_to()))
                    }
                }
            }
            Expr::Index { base, indices } => {
                let (addr, elem) = self.element_address(base, indices, line)?;
                let b = self.block(line)?;
                let v = self.f.append_simple(b, elem, Opcode::Load, vec![addr]);
                Ok((v, elem))
            }
            Expr::Bin(op, l, r) => {
                let (lv, lt) = self.expr(l, line)?;
                let (rv, rt) = self.expr(r, line)?;
                self.binary_values(*op, lv, lt, rv, rt, line)
            }
            Expr::Cmp(op, l, r) => {
                let (lv, lt) = self.expr(l, line)?;
                let (rv, rt) = self.expr(r, line)?;
                let lc = self.as_arith(lt, line)?;
                let rc = self.as_arith(rt, line)?;
                let common = Self::common_type(lc, rc);
                let lv = self.convert(lv, lt, common, line)?;
                let rv = self.convert(rv, rt, common, line)?;
                let b = self.block(line)?;
                let v = if common.is_float() {
                    let pred = match op {
                        CmpOp::Eq => FCmpPred::Oeq,
                        CmpOp::Ne => FCmpPred::One,
                        CmpOp::Lt => FCmpPred::Olt,
                        CmpOp::Le => FCmpPred::Ole,
                        CmpOp::Gt => FCmpPred::Ogt,
                        CmpOp::Ge => FCmpPred::Oge,
                    };
                    self.f
                        .append_simple(b, Type::I1, Opcode::FCmp(pred), vec![lv, rv])
                } else {
                    let pred = match op {
                        CmpOp::Eq => ICmpPred::Eq,
                        CmpOp::Ne => ICmpPred::Ne,
                        CmpOp::Lt => ICmpPred::Slt,
                        CmpOp::Le => ICmpPred::Sle,
                        CmpOp::Gt => ICmpPred::Sgt,
                        CmpOp::Ge => ICmpPred::Sge,
                    };
                    self.f
                        .append_simple(b, Type::I1, Opcode::ICmp(pred), vec![lv, rv])
                };
                Ok((v, Type::I1))
            }
            Expr::And(l, r) => {
                let lc = self.condition(l, line)?;
                let rc = self.condition(r, line)?;
                let b = self.block(line)?;
                Ok((
                    self.f.append_simple(b, Type::I1, Opcode::And, vec![lc, rc]),
                    Type::I1,
                ))
            }
            Expr::Or(l, r) => {
                let lc = self.condition(l, line)?;
                let rc = self.condition(r, line)?;
                let b = self.block(line)?;
                Ok((
                    self.f.append_simple(b, Type::I1, Opcode::Or, vec![lc, rc]),
                    Type::I1,
                ))
            }
            Expr::Not(x) => {
                let c = self.condition(x, line)?;
                let b = self.block(line)?;
                let one = self.f.const_int(Type::I1, 1);
                Ok((
                    self.f.append_simple(b, Type::I1, Opcode::Xor, vec![c, one]),
                    Type::I1,
                ))
            }
            Expr::Neg(x) => {
                let (v, ty) = self.expr(x, line)?;
                let c = self.as_arith(ty, line)?;
                let zero = self.zero_const(c);
                self.binary_values(BinOp::Sub, zero, c, v, ty, line)
            }
            Expr::Ternary { cond, then, other } => {
                let c = self.condition(cond, line)?;
                let (tv, tt) = self.expr(then, line)?;
                let (ov, ot) = self.expr(other, line)?;
                let tc = self.as_arith(tt, line)?;
                let oc = self.as_arith(ot, line)?;
                let common = Self::common_type(tc, oc);
                let tv = self.convert(tv, tt, common, line)?;
                let ov = self.convert(ov, ot, common, line)?;
                let b = self.block(line)?;
                let v = self
                    .f
                    .append_simple(b, common, Opcode::Select, vec![c, tv, ov]);
                Ok((v, common))
            }
            Expr::Cast { ty, expr } => {
                let (v, vty) = self.expr(expr, line)?;
                let v = self.convert(v, vty, *ty, line)?;
                Ok((v, *ty))
            }
            Expr::Call { name, args } => self.call(name, args, line),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], line: usize) -> Result<(ValueId, Type)> {
        // Math intrinsics take and return double.
        if let Some((_, arity)) = MATH_INTRINSICS.iter().find(|(n, _)| *n == name) {
            if args.len() != *arity {
                return Err(CompileError {
                    line,
                    message: format!("{name} expects {arity} argument(s), got {}", args.len()),
                });
            }
            let mut vals = Vec::new();
            for a in args {
                let (v, vty) = self.expr(a, line)?;
                vals.push(self.convert(v, vty, Type::F64, line)?);
            }
            let b = self.block(line)?;
            let v = self.f.append_call(b, Type::F64, name, vals);
            return Ok((v, Type::F64));
        }
        let Some((param_tys, ret_ty)) = self.signatures.get(name).cloned() else {
            return Err(CompileError {
                line,
                message: format!("call to unknown function {name:?}"),
            });
        };
        if param_tys.len() != args.len() {
            return Err(CompileError {
                line,
                message: format!(
                    "{name} expects {} argument(s), got {}",
                    param_tys.len(),
                    args.len()
                ),
            });
        }
        let mut vals = Vec::new();
        for (a, &pty) in args.iter().zip(&param_tys) {
            let (v, vty) = self.expr(a, line)?;
            vals.push(self.convert(v, vty, pty, line)?);
        }
        let b = self.block(line)?;
        let v = self.f.append_call(b, ret_ty, name, vals);
        Ok((v, ret_ty))
    }
}

#[cfg(test)]
mod tests {
    use crate::compile_unoptimized;
    use ssair::Opcode;

    #[test]
    fn lowers_straight_line_code() {
        let m = compile_unoptimized("int f(int a, int b) { return a * b + a; }", "t").unwrap();
        let f = m.function("f").unwrap();
        assert_eq!(f.num_blocks(), 1);
        let ops: Vec<_> = f
            .block(ssair::BlockId(0))
            .instrs
            .iter()
            .map(|&v| f.opcode(v).unwrap())
            .collect();
        assert_eq!(ops, vec![Opcode::Mul, Opcode::Add, Opcode::Ret]);
    }

    #[test]
    fn rejects_array_sizes_that_overflow_i64() {
        for src in [
            "double f() { double a[4294967296][4294967296]; a[0][0] = 1.0; return a[0][0]; }",
            "double f() { double a[3037000500][3037000500]; a[0][0] = 1.0; return a[0][0]; }",
        ] {
            let err = compile_unoptimized(src, "t").expect_err(src);
            assert!(err.message.contains("too many elements"), "{err}");
        }
    }

    #[test]
    fn lowers_canonical_for_loop_with_phi() {
        let m = compile_unoptimized(
            "long sum(long n) { long acc = 0; for (long i = 0; i < n; i++) acc = acc + i; return acc; }",
            "t",
        )
        .unwrap();
        let f = m.function("sum").unwrap();
        // preheader(entry), header, body, latch, exit
        assert_eq!(f.num_blocks(), 5);
        let header = ssair::BlockId(1);
        let phis: Vec<_> = f
            .block(header)
            .instrs
            .iter()
            .filter(|&&v| f.opcode(v) == Some(Opcode::Phi))
            .collect();
        assert_eq!(phis.len(), 2, "iterator and accumulator phis");
    }

    #[test]
    fn trivial_phis_are_removed() {
        // `n` is never assigned in the loop, so no phi for it may survive.
        let m = compile_unoptimized(
            "long f(long n) { long s = 0; for (long i = 0; i < n; i++) s = s + n; return s; }",
            "t",
        )
        .unwrap();
        let f = m.function("f").unwrap();
        let header = ssair::BlockId(1);
        let phis = f
            .block(header)
            .instrs
            .iter()
            .filter(|&&v| f.opcode(v) == Some(Opcode::Phi))
            .count();
        assert_eq!(phis, 2, "only i and s get phis, not n");
    }

    #[test]
    fn if_else_merges_with_phi() {
        let m = compile_unoptimized(
            "int f(int a) { int r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }",
            "t",
        )
        .unwrap();
        let f = m.function("f").unwrap();
        let merge = ssair::BlockId(3);
        assert_eq!(f.opcode(f.block(merge).instrs[0]), Some(Opcode::Phi));
    }

    #[test]
    fn pointer_subscript_becomes_gep_load() {
        let m = compile_unoptimized("double f(double* x, int i) { return x[i]; }", "t").unwrap();
        let f = m.function("f").unwrap();
        let ops: Vec<_> = f
            .block(ssair::BlockId(0))
            .instrs
            .iter()
            .map(|&v| f.opcode(v).unwrap())
            .collect();
        // sext(i) to i64, gep, load, ret
        assert_eq!(
            ops,
            vec![Opcode::SExt, Opcode::Gep, Opcode::Load, Opcode::Ret]
        );
    }

    #[test]
    fn local_2d_array_flattens_row_major() {
        let m = compile_unoptimized(
            "double f() { double A[4][8]; A[1][2] = 5.0; return A[1][2]; }",
            "t",
        )
        .unwrap();
        let f = m.function("f").unwrap();
        let text = format!("{f}");
        assert!(
            text.contains("alloca double, i64 32"),
            "4*8 elements: {text}"
        );
        // Flattened index 1*8+2 = 10 is computed with mul/add on constants
        // (not folded in the unoptimized pipeline).
        assert!(text.contains("mul i64"), "{text}");
    }

    #[test]
    fn long_long_index_has_no_sext() {
        let m = compile_unoptimized("double f(double* x, long i) { return x[i]; }", "t").unwrap();
        let f = m.function("f").unwrap();
        let ops: Vec<_> = f
            .block(ssair::BlockId(0))
            .instrs
            .iter()
            .map(|&v| f.opcode(v).unwrap())
            .collect();
        assert_eq!(ops, vec![Opcode::Gep, Opcode::Load, Opcode::Ret]);
    }

    #[test]
    fn shadowing_in_nested_loops_is_allowed() {
        let m = compile_unoptimized(
            "long f(long n) { long s = 0; for (int i = 0; i < n; i++) { s += i; } for (int i = 0; i < n; i++) { s += 2 * i; } return s; }",
            "t",
        )
        .unwrap();
        assert!(m.function("f").is_some());
    }

    #[test]
    fn ternary_lowers_to_select() {
        let m =
            compile_unoptimized("double f(double x) { return x > 0.0 ? x : -x; }", "t").unwrap();
        let f = m.function("f").unwrap();
        let has_select = f
            .block(ssair::BlockId(0))
            .instrs
            .iter()
            .any(|&v| f.opcode(v) == Some(Opcode::Select));
        assert!(has_select);
    }

    #[test]
    fn intrinsic_calls_and_conversions() {
        let m = compile_unoptimized("double f(int a) { return sqrt(a); }", "t").unwrap();
        let f = m.function("f").unwrap();
        let text = format!("{f}");
        assert!(text.contains("sitofp i32"));
        assert!(text.contains("call double @sqrt"));
    }

    #[test]
    fn rejects_undeclared_and_redeclared() {
        assert!(compile_unoptimized("int f() { return x; }", "t").is_err());
        assert!(compile_unoptimized("int f() { int a = 1; int a = 2; return a; }", "t").is_err());
    }

    #[test]
    fn void_function_gets_implicit_return() {
        let m = compile_unoptimized("void f(double* p) { p[0] = 1.0; }", "t").unwrap();
        let f = m.function("f").unwrap();
        let last = *f.block(ssair::BlockId(0)).instrs.last().unwrap();
        assert_eq!(f.opcode(last), Some(Opcode::Ret));
    }

    #[test]
    fn while_loop_shape() {
        let m = compile_unoptimized(
            "long f(long n) { long i = 0; while (i < n) { i = i + 2; } return i; }",
            "t",
        )
        .unwrap();
        let f = m.function("f").unwrap();
        assert_eq!(f.num_blocks(), 5, "entry, header, body, latch, exit");
        let header = ssair::BlockId(1);
        assert_eq!(f.opcode(f.block(header).instrs[0]), Some(Opcode::Phi));
    }

    #[test]
    fn bool_arith_zext() {
        let m = compile_unoptimized("int f(int a) { return (a > 0) + 1; }", "t").unwrap();
        let text = format!("{}", m.function("f").unwrap());
        assert!(text.contains("zext"), "{text}");
    }

    #[test]
    fn int_index_into_2d_uses_i64_math() {
        let m = compile_unoptimized(
            "double f(double* a, int i, int j, int n) { return a[i * n + j]; }",
            "t",
        )
        .unwrap();
        let f = m.function("f").unwrap();
        let text = format!("{f}");
        // i*n+j computed in i32 then sext'd for the gep, like clang.
        assert!(text.contains("mul i32"));
        assert!(text.contains("sext i32"));
    }
}

//! Register bytecode for checked UDFs: the instruction set and the
//! AST-to-bytecode lowering.
//!
//! The tree interpreter re-walks the AST — hashing local names, chasing
//! `Box`es, matching on node kinds — once per edge. This module lowers an
//! instrumented UDF (after the static analyses) into a flat `Vec<Op>`
//! over a small register file so the per-edge cost is an indexed dispatch
//! loop. Each dispatched op costs a few nanoseconds, so the instruction
//! set is *fused*: the common shapes of a neighbour-loop body are single
//! ops rather than chains of loads, temporaries and tests.
//!
//! * **Registers.** Carried locals are pinned at registers
//!   `0..carried` in `DepInfo::carried` order (so the dependency
//!   snapshot/restore is a masked register copy); remaining locals follow
//!   in declaration order; expression temporaries are stack-allocated on
//!   top. The checker's guarantees (unique local names, defined before
//!   use, ≤ 1 loop level) make this allocation trivially sound.
//! * **Fused operands.** `prop[u]` is one [`Op::LoadPropU`] (no `u`
//!   register); a binary op whose right operand is a literal is
//!   [`Op::BinaryImm`] (no `Const` temporary).
//! * **Conditions are branch chains.** An `if` condition never
//!   materialises a bool: `&&`/`||` become successive conditional
//!   branches, `!x` flips the branch sense, a comparison fuses with its
//!   branch ([`Op::JumpIfNotCmp`], [`Op::JumpIfNotCmpImm`] — a literal
//!   on the left is mirrored to the right), and `if prop[u]` is
//!   [`Op::JumpIfPropUFalse`]. A jump-if-true on a comparison is the
//!   jump-if-not of its complement, which is exact because comparing NaN
//!   panics in both executors. Value-context `&&`/`||` still short-circuit
//!   into a temporary.
//! * **Jump threading.** After lowering, a branch whose target is a bare
//!   [`Op::Jump`] is retargeted to that jump's destination, so a failed
//!   test at the end of a loop body returns straight to the
//!   [`Op::LoopHead`].
//! * **Instrumentation** maps to three ops mirroring the interpreter
//!   exactly: [`Op::Guard`] (skip-bit early-out + staging carried values
//!   under a pending mask), [`Op::Declare`]/[`Op::JumpIfPending`] (the
//!   `let` of a carried local consumes its staged value once), and
//!   [`Op::EmitDep`] (skip-bit set + declared-masked snapshot).
//! * **Property reads** are pre-resolved: names become indices into a
//!   table the VM binds to `&PropArray`s once per program, not per read.
//!
//! Every fused op computes its result through the interpreter's shared
//! `binary` and `PropArray::get`, so wrapping arithmetic,
//! int→float widening and the NaN panic are the interpreter's. The
//! K-core kernel (`paper_udfs::kcore_udf(4)`) lowers to this loop:
//!
//! ```text
//!    7: LoopHead { exit: 17 }
//!    8: JumpIfPropUFalse { prop: 0, target: 7 }                   // if active[u]
//!    9: BinaryImm { op: Add, dst: 0, lhs: 0, imm: Int(1) }        // cnt = cnt + 1
//!   10: JumpIfNotCmpImm { op: Ge, lhs: 0, imm: Int(4), target: 7 } // if cnt >= 4
//!   11..15: emit(cnt - start); done = true; EmitDep; Break
//! ```
//!
//! two dispatches per inactive neighbour and four per counted one, where
//! the unfused lowering took five and ten.
//!
//! Lowering is total for every program the checker accepts except two
//! resource limits — more than [`MAX_REGS`] live registers or more than
//! [`MAX_CARRIED`] carried locals — surfaced as [`CompileError`] (and as
//! lint W006, so silent de-optimisation is visible).

use crate::analysis::DepInfo;
use crate::ast::{BinOp, Expr, Stmt, UnOp};
use crate::transform::InstrumentedUdf;
use crate::types::Value;
use std::collections::HashMap;
use std::fmt;

/// A register index in the VM's register file.
pub type Reg = u8;

/// Register-file capacity: named locals plus the expression-temporary
/// high-water mark must fit in a `u8`-indexed file.
pub const MAX_REGS: usize = 256;

/// Carried locals are tracked by 64-bit pending/declared masks.
pub const MAX_CARRIED: usize = 64;

/// One bytecode instruction. `Copy`, fixed-size, no heap indirection —
/// the dispatch loop streams a flat `Vec<Op>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `regs[dst] = val`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Literal value.
        val: Value,
    },
    /// `regs[dst] = regs[src]`.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `regs[dst] = props[prop][regs[idx]]` — `prop` pre-resolved to a
    /// property-table index at bind time.
    LoadProp {
        /// Destination register.
        dst: Reg,
        /// Index into the compiled property table.
        prop: u16,
        /// Register holding the vertex index.
        idx: Reg,
    },
    /// `regs[dst] = props[prop][u]` — the neighbour-indexed read every
    /// loop body starts with, without materialising `u` in a register.
    LoadPropU {
        /// Destination register.
        dst: Reg,
        /// Index into the compiled property table.
        prop: u16,
    },
    /// `regs[dst] = Vertex(v)` (the current destination vertex).
    LoadV {
        /// Destination register.
        dst: Reg,
    },
    /// `regs[dst] = Vertex(u)` (the neighbour bound by the loop).
    LoadU {
        /// Destination register.
        dst: Reg,
    },
    /// `regs[dst] = op regs[src]`.
    Unary {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// `regs[dst] = regs[lhs] op regs[rhs]` (never `&&`/`||` — those
    /// compile to branches).
    Binary {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// `regs[dst] = regs[lhs] op imm` — a binary op whose right operand
    /// is a literal.
    BinaryImm {
        /// Operator (never `&&`/`||`).
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand literal.
        imm: Value,
    },
    /// `if !(regs[lhs] op regs[rhs]) { pc = target }` — a comparison fused
    /// with the branch it feeds.
    JumpIfNotCmp {
        /// Comparison operator.
        op: BinOp,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
        /// Branch target (instruction index).
        target: u32,
    },
    /// `if !(regs[lhs] op imm) { pc = target }`.
    JumpIfNotCmpImm {
        /// Comparison operator.
        op: BinOp,
        /// Left operand register.
        lhs: Reg,
        /// Right operand literal.
        imm: Value,
        /// Branch target (instruction index).
        target: u32,
    },
    /// `if !props[prop][u] { pc = target }` — the `if prop[u]` test of a
    /// neighbour loop in one op.
    JumpIfPropUFalse {
        /// Index into the compiled property table (a bool array).
        prop: u16,
        /// Branch target (instruction index).
        target: u32,
    },
    /// `if !regs[cond] { pc = target }`.
    JumpIfFalse {
        /// Condition register (bool-typed).
        cond: Reg,
        /// Branch target (instruction index).
        target: u32,
    },
    /// `if regs[cond] { pc = target }`.
    JumpIfTrue {
        /// Condition register (bool-typed).
        cond: Reg,
        /// Branch target (instruction index).
        target: u32,
    },
    /// `pc = target`.
    Jump {
        /// Branch target (instruction index).
        target: u32,
    },
    /// `emit(regs[src].to_bits())`.
    Emit {
        /// Register holding the update value.
        src: Reg,
    },
    /// Reset the neighbour-loop cursor (loops cannot nest, so one cursor
    /// suffices).
    LoopInit,
    /// Loop head: bind the next neighbour into `u`, count the edge, and
    /// advance; jump to `exit` when the neighbour list is exhausted.
    LoopHead {
        /// Instruction index of the op after the loop (its `ClearU`).
        exit: u32,
    },
    /// `break`: set the broke flag and leave the loop.
    Break {
        /// Instruction index of the op after the loop (its `ClearU`).
        exit: u32,
    },
    /// Unbind `u` on loop exit (normal or broken).
    ClearU,
    /// `ReceiveDepGuard`: on the carried path, halt if the skip bit is
    /// set; otherwise stage every carried value into its pinned register
    /// under the pending mask.
    Guard,
    /// Skip a carried local's initialiser when its staged value is
    /// pending (consuming the pending bit) — the `let` *is* the restore
    /// point, as in the interpreter.
    JumpIfPending {
        /// Carried-local index (mask bit).
        idx: u8,
        /// Branch target: the `Declare` after the initialiser.
        target: u32,
    },
    /// Mark a carried local as declared (it participates in snapshots).
    Declare {
        /// Carried-local index (mask bit).
        idx: u8,
    },
    /// `EmitDep`: set the skip bit and snapshot declared carried locals.
    EmitDep,
    /// Return from the UDF (the epilogue snapshot still runs, exactly as
    /// the interpreter's post-`exec_block` snapshot does).
    Halt,
}

impl Op {
    /// The branch target of a control-transfer op; `None` for
    /// straight-line ops. Exhaustive on purpose: a new op must say
    /// whether it branches, or patching and jump threading miss it.
    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. }
            | Op::JumpIfNotCmp { target, .. }
            | Op::JumpIfNotCmpImm { target, .. }
            | Op::JumpIfPropUFalse { target, .. }
            | Op::Jump { target }
            | Op::JumpIfPending { target, .. }
            | Op::LoopHead { exit: target }
            | Op::Break { exit: target } => Some(target),
            Op::Const { .. }
            | Op::Move { .. }
            | Op::LoadProp { .. }
            | Op::LoadPropU { .. }
            | Op::LoadV { .. }
            | Op::LoadU { .. }
            | Op::Unary { .. }
            | Op::Binary { .. }
            | Op::BinaryImm { .. }
            | Op::Emit { .. }
            | Op::LoopInit
            | Op::ClearU
            | Op::Guard
            | Op::Declare { .. }
            | Op::EmitDep
            | Op::Halt => None,
        }
    }
}

/// Why a checked UDF could not be lowered to bytecode. The engine falls
/// back to the interpreter (outputs identical, dispatch slower); lint
/// W006 reports the fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The program needs more than [`MAX_REGS`] registers.
    TooManyRegisters {
        /// Registers the program would need.
        needed: usize,
    },
    /// The program carries more than [`MAX_CARRIED`] locals across
    /// machine boundaries.
    TooManyCarried {
        /// Carried locals in the dependency info.
        carried: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyRegisters { needed } => write!(
                f,
                "program needs {needed} registers but the VM register file holds {MAX_REGS}"
            ),
            CompileError::TooManyCarried { carried } => write!(
                f,
                "program carries {carried} locals but the dependency masks hold {MAX_CARRIED}"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// An instrumented UDF lowered to register bytecode, ready for the VM to
/// bind to a property store and execute.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledUdf {
    pub(crate) ops: Vec<Op>,
    pub(crate) num_regs: usize,
    pub(crate) prop_names: Vec<String>,
    pub(crate) carried: usize,
}

impl CompiledUdf {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// A compiled program always has at least its final `Halt`.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Size of the register file (named locals + temporary high-water).
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Property arrays the program reads, in first-use order (the VM
    /// binds these to a store once per program).
    pub fn prop_names(&self) -> &[String] {
        &self.prop_names
    }

    /// The instruction stream (exposed for disassembly and tests).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of carried locals (pinned at registers `0..carried`).
    pub fn carried(&self) -> usize {
        self.carried
    }

    /// Human-readable instruction listing (for diagnostics and docs).
    pub fn disassemble(&self) -> String {
        use fmt::Write;
        let mut s = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            let _ = writeln!(s, "{i:4}: {op:?}");
        }
        s
    }
}

/// Lowers an instrumented UDF to bytecode. See the module docs for the
/// mapping; [`crate::compile`] is the public entry point.
pub(crate) fn lower(inst: &InstrumentedUdf) -> Result<CompiledUdf, CompileError> {
    let carried = inst.info.carried.len();
    if carried > MAX_CARRIED {
        return Err(CompileError::TooManyCarried { carried });
    }
    let mut lw = Lowering::new(&inst.info);
    lw.block(&inst.udf.body)?;
    lw.ops.push(Op::Halt);
    thread_jumps(&mut lw.ops);
    Ok(CompiledUdf {
        ops: lw.ops,
        num_regs: lw.max_regs,
        prop_names: lw.prop_names,
        carried,
    })
}

/// Retargets every branch whose target is a `Jump` straight to that
/// jump's final target, so e.g. a failed `if` at the end of a loop body
/// returns to the loop head in one dispatch instead of two. A `Jump` has
/// no effect besides moving `pc`, so the rewrite is exact.
fn thread_jumps(ops: &mut [Op]) {
    for i in 0..ops.len() {
        let mut op = ops[i];
        if let Some(t) = op.target_mut() {
            // Lowering never emits a cycle of bare jumps (every loop
            // passes its `LoopHead`); the hop bound is a backstop.
            for _ in 0..ops.len() {
                match ops[*t as usize] {
                    Op::Jump { target } if target != *t => *t = target,
                    _ => break,
                }
            }
        }
        ops[i] = op;
    }
}

/// The comparison with its operands swapped: `a op b ⇔ b mirror(op) a`.
fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// The complementary comparison: `!(a op b) ⇔ a negate(op) b`. Exact
/// because a comparison never yields "unordered": NaN panics in the
/// shared comparison either way.
fn negate(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => unreachable!("{other:?} is not a comparison"),
    }
}

fn is_comparison(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
    )
}

struct Lowering<'i> {
    info: &'i DepInfo,
    ops: Vec<Op>,
    /// name → (register, carried index if any)
    locals: HashMap<String, (Reg, Option<u8>)>,
    /// Next free register; temporaries stack on top of named locals.
    top: usize,
    named: usize,
    max_regs: usize,
    prop_names: Vec<String>,
    prop_index: HashMap<String, u16>,
}

impl<'i> Lowering<'i> {
    fn new(info: &'i DepInfo) -> Self {
        let mut lw = Lowering {
            info,
            ops: Vec::new(),
            locals: HashMap::new(),
            top: 0,
            named: 0,
            max_regs: 0,
            prop_names: Vec::new(),
            prop_index: HashMap::new(),
        };
        // Pin carried locals at registers 0..carried in DepInfo order.
        for (i, (name, _ty)) in info.carried.iter().enumerate() {
            lw.locals.insert(name.clone(), (i as Reg, Some(i as u8)));
        }
        lw.top = info.carried.len();
        lw.named = lw.top;
        lw.max_regs = lw.top;
        lw
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: u32, target: u32) {
        let op = &mut self.ops[at as usize];
        match op.target_mut() {
            Some(t) => *t = target,
            None => unreachable!("patching non-jump {op:?}"),
        }
    }

    /// Pushes a branch op with an unpatched target and records its index
    /// in `sites` for the caller to patch.
    fn push_branch(&mut self, op: Op, sites: &mut Vec<u32>) {
        sites.push(self.here());
        self.ops.push(op);
    }

    fn alloc_temp(&mut self) -> Result<Reg, CompileError> {
        let r = self.top;
        if r >= MAX_REGS {
            return Err(CompileError::TooManyRegisters { needed: r + 1 });
        }
        self.top += 1;
        self.max_regs = self.max_regs.max(self.top);
        Ok(r as Reg)
    }

    /// Register of local `name`, allocating a named register on first
    /// sight (declaration order; carried locals are pre-pinned).
    fn local_reg(&mut self, name: &str) -> Result<(Reg, Option<u8>), CompileError> {
        if let Some(&entry) = self.locals.get(name) {
            return Ok(entry);
        }
        let r = self.named;
        if r >= MAX_REGS {
            return Err(CompileError::TooManyRegisters { needed: r + 1 });
        }
        self.named += 1;
        // Named registers live below temporaries: statements never leak
        // temps (top == named between statements), so bumping both is
        // safe and keeps the stack discipline intact.
        debug_assert_eq!(self.top, r, "temporaries leaked across a statement");
        self.top = self.named;
        self.max_regs = self.max_regs.max(self.top);
        self.locals.insert(name.to_string(), (r as Reg, None));
        Ok((r as Reg, None))
    }

    fn prop_id(&mut self, name: &str) -> u16 {
        if let Some(&i) = self.prop_index.get(name) {
            return i;
        }
        let i = self.prop_names.len() as u16;
        self.prop_names.push(name.to_string());
        self.prop_index.insert(name.to_string(), i);
        i
    }

    /// Lowers `e`, placing the result in `dst`. Every op writes `dst`
    /// only after reading its operands, so `dst` may alias a register the
    /// expression reads; the short-circuit forms write `dst` early and
    /// therefore always evaluate into a fresh temporary first.
    fn expr(&mut self, e: &Expr, dst: Reg) -> Result<(), CompileError> {
        match e {
            Expr::Lit(v) => self.ops.push(Op::Const { dst, val: *v }),
            Expr::Local(name) => {
                let (src, _) = self.local_reg(name)?;
                if src != dst {
                    self.ops.push(Op::Move { dst, src });
                }
            }
            Expr::Prop { array, index } if **index == Expr::CurrentNeighbor => {
                let prop = self.prop_id(array);
                self.ops.push(Op::LoadPropU { dst, prop });
            }
            Expr::Prop { array, index } => {
                let save = self.top;
                let idx = self.operand(index)?;
                let prop = self.prop_id(array);
                self.ops.push(Op::LoadProp { dst, prop, idx });
                self.top = save;
            }
            Expr::CurrentVertex => self.ops.push(Op::LoadV { dst }),
            Expr::CurrentNeighbor => self.ops.push(Op::LoadU { dst }),
            Expr::Unary(op, a) => {
                let save = self.top;
                let src = self.operand(a)?;
                self.ops.push(Op::Unary { op: *op, dst, src });
                self.top = save;
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                // Short-circuit: evaluate into a fresh temp (written
                // before `b` runs, so it must not alias anything `b`
                // reads), then move into place.
                let save = self.top;
                let t = self.alloc_temp()?;
                self.expr(a, t)?;
                let jump = self.here();
                self.ops.push(match op {
                    BinOp::And => Op::JumpIfFalse { cond: t, target: 0 },
                    _ => Op::JumpIfTrue { cond: t, target: 0 },
                });
                self.expr(b, t)?;
                let end = self.here();
                self.patch(jump, end);
                if t != dst {
                    self.ops.push(Op::Move { dst, src: t });
                }
                self.top = save;
            }
            Expr::Binary(op, a, b) => {
                let save = self.top;
                let lhs = self.operand(a)?;
                if let Expr::Lit(imm) = **b {
                    self.ops.push(Op::BinaryImm {
                        op: *op,
                        dst,
                        lhs,
                        imm,
                    });
                } else {
                    let rhs = self.operand(b)?;
                    self.ops.push(Op::Binary {
                        op: *op,
                        dst,
                        lhs,
                        rhs,
                    });
                }
                self.top = save;
            }
        }
        Ok(())
    }

    /// Lowers `e` as a branch chain: control jumps to a site recorded in
    /// `sites` (patched by the caller) when `e` evaluates to `jump_if`,
    /// and falls through otherwise. `&&`/`||` become successive
    /// branches, `!` flips the sense, comparisons fuse with their branch,
    /// and nothing is materialised except a leaf the fused ops cannot
    /// test directly. Operands evaluate in source order, as in the
    /// interpreter.
    fn branch(
        &mut self,
        e: &Expr,
        jump_if: bool,
        sites: &mut Vec<u32>,
    ) -> Result<(), CompileError> {
        match e {
            Expr::Unary(UnOp::Not, a) => return self.branch(a, !jump_if, sites),
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                // The value of `a` that decides the whole expression.
                let decisive = *op == BinOp::Or;
                if jump_if == decisive {
                    // Either operand alone reaches the target.
                    self.branch(a, jump_if, sites)?;
                    return self.branch(b, jump_if, sites);
                }
                // `a` deciding the other way skips past `b`'s test.
                let mut skip = Vec::new();
                self.branch(a, decisive, &mut skip)?;
                self.branch(b, jump_if, sites)?;
                let end = self.here();
                for at in skip {
                    self.patch(at, end);
                }
                return Ok(());
            }
            Expr::Binary(op, a, b) if is_comparison(*op) => {
                let op = if jump_if { negate(*op) } else { *op };
                let save = self.top;
                let fused = match (&**a, &**b) {
                    (_, Expr::Lit(imm)) => Op::JumpIfNotCmpImm {
                        op,
                        lhs: self.operand(a)?,
                        imm: *imm,
                        target: 0,
                    },
                    (Expr::Lit(imm), _) => Op::JumpIfNotCmpImm {
                        op: mirror(op),
                        lhs: self.operand(b)?,
                        imm: *imm,
                        target: 0,
                    },
                    _ => Op::JumpIfNotCmp {
                        op,
                        lhs: self.operand(a)?,
                        rhs: self.operand(b)?,
                        target: 0,
                    },
                };
                self.push_branch(fused, sites);
                self.top = save;
                return Ok(());
            }
            Expr::Prop { array, index } if !jump_if && **index == Expr::CurrentNeighbor => {
                let prop = self.prop_id(array);
                self.push_branch(Op::JumpIfPropUFalse { prop, target: 0 }, sites);
                return Ok(());
            }
            _ => {}
        }
        let save = self.top;
        let cond = self.operand(e)?;
        let op = if jump_if {
            Op::JumpIfTrue { cond, target: 0 }
        } else {
            Op::JumpIfFalse { cond, target: 0 }
        };
        self.push_branch(op, sites);
        self.top = save;
        Ok(())
    }

    /// Lowers `e` as an operand: locals are read in place (no move),
    /// everything else evaluates into a temporary.
    fn operand(&mut self, e: &Expr) -> Result<Reg, CompileError> {
        if let Expr::Local(name) = e {
            return Ok(self.local_reg(name)?.0);
        }
        let t = self.alloc_temp()?;
        self.expr(e, t)?;
        Ok(t)
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Let { name, init, .. } => {
                let (reg, carried) = self.local_reg(name)?;
                match carried {
                    Some(idx) => {
                        // The pending (restored) value is already in the
                        // pinned register; consume the bit and skip the
                        // initialiser, exactly like `pending.remove` in
                        // the interpreter.
                        let jump = self.here();
                        self.ops.push(Op::JumpIfPending { idx, target: 0 });
                        self.expr(init, reg)?;
                        let end = self.here();
                        self.patch(jump, end);
                        self.ops.push(Op::Declare { idx });
                    }
                    None => self.expr(init, reg)?,
                }
            }
            Stmt::Assign { name, value } => {
                let (reg, _) = self.local_reg(name)?;
                self.expr(value, reg)?;
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let mut to_else = Vec::new();
                self.branch(cond, false, &mut to_else)?;
                self.block(then_branch)?;
                let mut skip_else = None;
                if !else_branch.is_empty() {
                    skip_else = Some(self.here());
                    self.ops.push(Op::Jump { target: 0 });
                }
                let else_at = self.here();
                for at in to_else {
                    self.patch(at, else_at);
                }
                self.block(else_branch)?;
                if let Some(at) = skip_else {
                    let end = self.here();
                    self.patch(at, end);
                }
            }
            Stmt::ForNeighbors { body } => {
                self.ops.push(Op::LoopInit);
                let head = self.here();
                self.ops.push(Op::LoopHead { exit: 0 });
                self.block(body)?;
                self.ops.push(Op::Jump { target: head });
                let exit = self.here();
                self.ops.push(Op::ClearU);
                // Break targets inside the body were lowered with their
                // exits unpatched (0 is never a valid loop exit: ops 0..
                // precede the loop); fix them up now.
                self.patch(head, exit);
                for at in head as usize + 1..exit as usize {
                    if let Op::Break { exit: 0 } = self.ops[at] {
                        self.patch(at as u32, exit);
                    }
                }
            }
            Stmt::Break => self.ops.push(Op::Break { exit: 0 }),
            Stmt::Emit(e) => {
                let save = self.top;
                let src = self.operand(e)?;
                self.ops.push(Op::Emit { src });
                self.top = save;
            }
            Stmt::Return => self.ops.push(Op::Halt),
            Stmt::ReceiveDepGuard => self.ops.push(Op::Guard),
            Stmt::EmitDep => self.ops.push(Op::EmitDep),
        }
        debug_assert_eq!(self.top, self.named, "statement leaked temporaries");
        let _ = self.info;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::UdfFn;
    use crate::instrument;
    use crate::paper_udfs;
    use crate::types::Ty;

    fn compile_ok(udf: &UdfFn) -> CompiledUdf {
        lower(&instrument(udf).unwrap()).unwrap()
    }

    /// The branch target of every control-transfer op, listed here
    /// independently of `Op::target_mut` (exhaustive, so a new op must be
    /// classified before this test compiles).
    fn branch_target(op: &Op) -> Option<u32> {
        match *op {
            Op::Jump { target }
            | Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. }
            | Op::JumpIfNotCmp { target, .. }
            | Op::JumpIfNotCmpImm { target, .. }
            | Op::JumpIfPropUFalse { target, .. }
            | Op::JumpIfPending { target, .. }
            | Op::LoopHead { exit: target }
            | Op::Break { exit: target } => Some(target),
            Op::Const { .. }
            | Op::Move { .. }
            | Op::LoadProp { .. }
            | Op::LoadPropU { .. }
            | Op::LoadV { .. }
            | Op::LoadU { .. }
            | Op::Unary { .. }
            | Op::Binary { .. }
            | Op::BinaryImm { .. }
            | Op::Emit { .. }
            | Op::LoopInit
            | Op::ClearU
            | Op::Guard
            | Op::Declare { .. }
            | Op::EmitDep
            | Op::Halt => None,
        }
    }

    #[test]
    fn paper_kernels_lower() {
        for udf in [
            paper_udfs::bfs_udf(),
            paper_udfs::mis_udf(),
            paper_udfs::kcore_udf(4),
            paper_udfs::kmeans_udf(),
            paper_udfs::sampling_udf(),
            paper_udfs::sssp_udf(),
            paper_udfs::cc_udf(),
            paper_udfs::pagerank_udf(),
        ] {
            let code = compile_ok(&udf);
            assert!(!code.is_empty());
            assert!(matches!(code.ops().last(), Some(Op::Halt)));
            assert!(code.num_regs() <= MAX_REGS);
            for (at, op) in code.ops().iter().enumerate() {
                if let Some(target) = branch_target(op) {
                    // Jump targets stay inside the instruction stream...
                    assert!(
                        (target as usize) < code.len(),
                        "{}: target out of range",
                        udf.name
                    );
                    // ...and threading left no branch landing on a bare
                    // jump.
                    assert!(
                        !matches!(code.ops()[target as usize], Op::Jump { .. }),
                        "{}: op {at} branches to a jump",
                        udf.name
                    );
                }
            }
        }
    }

    #[test]
    fn kcore_listing_is_golden() {
        let code = compile_ok(&paper_udfs::kcore_udf(4));
        let want = [
            "0: Guard",
            "1: JumpIfPending { idx: 0, target: 3 }",
            "2: Const { dst: 0, val: Int(0) }",
            "3: Declare { idx: 0 }",
            "4: Move { dst: 1, src: 0 }",
            "5: Const { dst: 2, val: Bool(false) }",
            "6: LoopInit",
            "7: LoopHead { exit: 17 }",
            "8: JumpIfPropUFalse { prop: 0, target: 7 }",
            "9: BinaryImm { op: Add, dst: 0, lhs: 0, imm: Int(1) }",
            "10: JumpIfNotCmpImm { op: Ge, lhs: 0, imm: Int(4), target: 7 }",
            "11: Binary { op: Sub, dst: 3, lhs: 0, rhs: 1 }",
            "12: Emit { src: 3 }",
            "13: Const { dst: 2, val: Bool(true) }",
            "14: EmitDep",
            "15: Break { exit: 17 }",
            "16: Jump { target: 7 }",
            "17: ClearU",
            "18: JumpIfTrue { cond: 2, target: 22 }",
            "19: JumpIfNotCmp { op: Gt, lhs: 0, rhs: 1, target: 22 }",
            "20: Binary { op: Sub, dst: 3, lhs: 0, rhs: 1 }",
            "21: Emit { src: 3 }",
            "22: Halt",
        ];
        let listing = code.disassemble();
        let got: Vec<&str> = listing.lines().map(str::trim).collect();
        assert_eq!(got, want);

        // Per-neighbour dispatch: from the loop head, an inactive
        // neighbour fails the property test and returns to the head; a
        // counted one below `k` increments, fails the `cnt >= k` test and
        // returns to the head.
        let ops = code.ops();
        let head = ops
            .iter()
            .position(|op| matches!(op, Op::LoopHead { .. }))
            .expect("a loop head") as u32;
        let returns_at = |path: &[usize]| {
            let last = ops[*path.last().unwrap()];
            path.first() == Some(&(head as usize)) && branch_target(&last) == Some(head)
        };
        let inactive = [head as usize, head as usize + 1];
        assert!(matches!(ops[inactive[1]], Op::JumpIfPropUFalse { .. }));
        assert!(returns_at(&inactive), "inactive neighbour: > 2 ops");
        let counted = [
            head as usize,
            head as usize + 1,
            head as usize + 2,
            head as usize + 3,
        ];
        assert!(returns_at(&counted), "counted neighbour: > 4 ops");
    }

    #[test]
    fn carried_locals_get_pinned_registers() {
        let inst = instrument(&paper_udfs::kcore_udf(3)).unwrap();
        let code = lower(&inst).unwrap();
        assert_eq!(code.carried, inst.info.carried.len());
        assert!(code
            .ops()
            .iter()
            .any(|op| matches!(op, Op::Declare { idx: 0 })));
        assert!(code.ops().iter().any(|op| matches!(op, Op::Guard)));
        assert!(code.ops().iter().any(|op| matches!(op, Op::EmitDep)));
    }

    #[test]
    fn property_table_dedupes_names() {
        let code = compile_ok(&paper_udfs::bfs_udf());
        let mut names = code.prop_names().to_vec();
        names.dedup();
        assert_eq!(names.len(), code.prop_names().len());
    }

    #[test]
    fn register_pressure_overflows_report() {
        // 300 distinct locals blow the u8 register file.
        let mut body: Vec<Stmt> = (0..300)
            .map(|i| Stmt::let_(&format!("x{i}"), Ty::Int, Expr::i(i)))
            .collect();
        body.push(Stmt::Emit(Expr::local("x0")));
        let udf = UdfFn::new("wide", Ty::Int, body);
        let err = lower(&instrument(&udf).unwrap()).unwrap_err();
        assert!(matches!(err, CompileError::TooManyRegisters { .. }));
        assert!(err.to_string().contains("register file"));
    }
}

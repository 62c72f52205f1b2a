//! The register VM executing compiled UDF bytecode.
//!
//! [`BoundVm`] is a [`crate::CompiledUdf`] with its property table
//! resolved against a [`PropertyStore`] — name lookups happen once per
//! program, not once per read. Execution is a flat dispatch loop over
//! `Copy` instructions and a thread-local register file, so a signal call
//! performs **zero heap allocation**: no `Env`, no `HashMap`, no `Box`
//! chasing. All value semantics (wrapping integer arithmetic, float
//! widening, NaN-panicking comparison, short-circuit evaluation) are
//! shared with the tree interpreter, which stays the differential
//! reference: on checked programs the two produce bit-identical emissions,
//! edge counts, break flags, and dependency payloads.
//!
//! Each fused op of [`crate::bytecode`] computes through the same
//! `binary`/`PropArray::get` as the op sequence it replaces and saves
//! only dispatches. `LoadPropU` and `JumpIfPropUFalse` read the
//! loop-bound `u` directly and panic with the interpreter's message if it
//! is unbound; the compare-and-branch ops evaluate `binary(op, lhs, rhs)`
//! and jump when it is false.
//!
//! The interpreter's per-call maps become two 64-bit masks:
//!
//! * `pending` — set for every carried local by [`Op::Guard`] after
//!   staging the restored value into the local's pinned register; the
//!   local's `let` consumes the bit instead of running its initialiser
//!   (the interpreter's `pending.remove`).
//! * `declared` — set by [`Op::Declare`] once a carried local's `let`
//!   executes; snapshots ([`Op::EmitDep`] and the no-break epilogue) copy
//!   only declared registers, mirroring the interpreter's
//!   `env.locals.get(name)` presence check.

use crate::bytecode::{CompiledUdf, Op};
use crate::dep_bridge::UdfDep;
use crate::interp::{binary, unary};
use crate::props::{PropArray, PropertyStore};
use crate::types::Value;
use std::cell::RefCell;
use symple_core::{DepState, SignalOutcome};
use symple_graph::Vid;

thread_local! {
    /// Register file, reused across every signal call on this thread.
    static REGS: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
}

/// A compiled UDF bound to a property store, ready to execute.
pub(crate) struct BoundVm<'a> {
    code: CompiledUdf,
    /// Parallel to `code.prop_names`: the resolved arrays.
    props: Vec<&'a PropArray>,
}

impl<'a> BoundVm<'a> {
    /// Resolves the program's property table against `store`. Returns
    /// `None` if any property is missing — the caller falls back to the
    /// interpreter, which resolves names lazily and therefore tolerates
    /// missing properties in never-executed code.
    pub(crate) fn bind(code: CompiledUdf, store: &'a PropertyStore) -> Option<Self> {
        let props = code
            .prop_names()
            .iter()
            .map(|n| store.get(n))
            .collect::<Option<Vec<_>>>()?;
        Some(BoundVm { code, props })
    }

    pub(crate) fn signal(
        &self,
        v: Vid,
        srcs: &[Vid],
        dep: &mut UdfDep,
        slot: usize,
        carried: bool,
        emit: &mut dyn FnMut(u64),
    ) -> SignalOutcome {
        REGS.with(|cell| {
            let regs = &mut *cell.borrow_mut();
            regs.clear();
            regs.resize(self.code.num_regs(), Value::Int(0));
            self.run(regs, v, srcs, dep, slot, carried, emit)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        regs: &mut [Value],
        v: Vid,
        srcs: &[Vid],
        dep: &mut UdfDep,
        slot: usize,
        carried: bool,
        emit: &mut dyn FnMut(u64),
    ) -> SignalOutcome {
        let ops = self.code.ops();
        let carried_n = self.code.carried();
        let mut pc = 0usize;
        let mut cursor = 0usize; // neighbour-loop position (loops don't nest)
        let mut u: Option<Vid> = None;
        let mut edges = 0u64;
        let mut broke = false;
        let mut pending = 0u64;
        let mut declared = 0u64;
        loop {
            match ops[pc] {
                Op::Const { dst, val } => {
                    regs[dst as usize] = val;
                    pc += 1;
                }
                Op::Move { dst, src } => {
                    regs[dst as usize] = regs[src as usize];
                    pc += 1;
                }
                Op::LoadProp { dst, prop, idx } => {
                    let at = regs[idx as usize].as_vertex();
                    regs[dst as usize] = self.props[prop as usize].get(at);
                    pc += 1;
                }
                Op::LoadPropU { dst, prop } => {
                    regs[dst as usize] = self.props[prop as usize].get(bound(u));
                    pc += 1;
                }
                Op::LoadV { dst } => {
                    regs[dst as usize] = Value::Vertex(v);
                    pc += 1;
                }
                Op::LoadU { dst } => {
                    regs[dst as usize] = Value::Vertex(bound(u));
                    pc += 1;
                }
                Op::Unary { op, dst, src } => {
                    regs[dst as usize] = unary(op, regs[src as usize]);
                    pc += 1;
                }
                Op::Binary { op, dst, lhs, rhs } => {
                    regs[dst as usize] = binary(op, regs[lhs as usize], regs[rhs as usize]);
                    pc += 1;
                }
                Op::BinaryImm { op, dst, lhs, imm } => {
                    regs[dst as usize] = binary(op, regs[lhs as usize], imm);
                    pc += 1;
                }
                Op::JumpIfNotCmp {
                    op,
                    lhs,
                    rhs,
                    target,
                } => {
                    pc = if binary(op, regs[lhs as usize], regs[rhs as usize]).as_bool() {
                        pc + 1
                    } else {
                        target as usize
                    };
                }
                Op::JumpIfNotCmpImm {
                    op,
                    lhs,
                    imm,
                    target,
                } => {
                    pc = if binary(op, regs[lhs as usize], imm).as_bool() {
                        pc + 1
                    } else {
                        target as usize
                    };
                }
                Op::JumpIfPropUFalse { prop, target } => {
                    pc = if self.props[prop as usize].get(bound(u)).as_bool() {
                        pc + 1
                    } else {
                        target as usize
                    };
                }
                Op::JumpIfFalse { cond, target } => {
                    pc = if regs[cond as usize].as_bool() {
                        pc + 1
                    } else {
                        target as usize
                    };
                }
                Op::JumpIfTrue { cond, target } => {
                    pc = if regs[cond as usize].as_bool() {
                        target as usize
                    } else {
                        pc + 1
                    };
                }
                Op::Jump { target } => pc = target as usize,
                Op::Emit { src } => {
                    emit(regs[src as usize].to_bits());
                    pc += 1;
                }
                Op::LoopInit => {
                    cursor = 0;
                    pc += 1;
                }
                Op::LoopHead { exit } => {
                    if cursor < srcs.len() {
                        edges += 1;
                        u = Some(srcs[cursor]);
                        cursor += 1;
                        pc += 1;
                    } else {
                        pc = exit as usize;
                    }
                }
                Op::Break { exit } => {
                    broke = true;
                    pc = exit as usize;
                }
                Op::ClearU => {
                    u = None;
                    pc += 1;
                }
                Op::Guard => {
                    if carried {
                        if dep.should_skip(slot) {
                            break; // guard return; epilogue is a no-op (nothing declared)
                        }
                        for (i, reg) in regs.iter_mut().enumerate().take(carried_n) {
                            *reg = dep.value(slot, i);
                        }
                        pending = full_mask(carried_n);
                    }
                    pc += 1;
                }
                Op::JumpIfPending { idx, target } => {
                    let bit = 1u64 << idx;
                    if pending & bit != 0 {
                        pending &= !bit;
                        pc = target as usize;
                    } else {
                        pc += 1;
                    }
                }
                Op::Declare { idx } => {
                    declared |= 1u64 << idx;
                    pc += 1;
                }
                Op::EmitDep => {
                    dep.mark(slot);
                    snapshot(dep, slot, declared, regs, carried_n);
                    pc += 1;
                }
                Op::Halt => break,
            }
        }
        // Data dependency flows onward even without a break (same
        // epilogue as the interpreter's post-exec snapshot).
        if !broke && carried_n > 0 {
            snapshot(dep, slot, declared, regs, carried_n);
        }
        SignalOutcome { edges, broke }
    }
}

/// The neighbour bound by the enclosing loop (the checker rules out `u`
/// outside it; the message matches the interpreter's).
fn bound(u: Option<Vid>) -> Vid {
    u.expect("`u` outside the neighbour loop (run check first)")
}

/// Copies the declared carried locals' registers into the dependency slot.
fn snapshot(dep: &mut UdfDep, slot: usize, declared: u64, regs: &[Value], carried_n: usize) {
    for (i, reg) in regs.iter().enumerate().take(carried_n) {
        if declared & (1u64 << i) != 0 {
            dep.set_value(slot, i, *reg);
        }
    }
}

fn full_mask(n: usize) -> u64 {
    debug_assert!(n <= 64, "compiler rejects >64 carried locals");
    if n == 0 {
        0
    } else {
        u64::MAX >> (64 - n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_edges() {
        assert_eq!(full_mask(0), 0);
        assert_eq!(full_mask(1), 1);
        assert_eq!(full_mask(3), 0b111);
        assert_eq!(full_mask(64), u64::MAX);
    }
}

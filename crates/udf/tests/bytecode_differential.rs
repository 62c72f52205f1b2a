//! Signal-level differential test: the bytecode VM against the tree
//! interpreter, one `signal` call at a time.
//!
//! The engine-level sweep in the workspace's `exec_equivalence` test
//! compares whole runs over a fixed UDF template. This file instead
//! generates checked random UDFs whose conditions reach every shape the
//! lowering fuses or threads — `&&`, `||`, `!`, `!(a && b)`, comparisons
//! with a literal on either side, int/float mixed and vertex comparisons,
//! `if/else`, `break` and `return` under nested `if`s, property reads at
//! `u`, at `v` and at a computed vertex — and runs each program under
//! both executors on the same neighbour segments. Every call must agree
//! on the emissions, the edge count, the break flag, and the dependency
//! slot it leaves behind (skip bit and the bits of every carried value),
//! on the scratch path (`carried = false`, slot reset per segment) and
//! on the carried path (the slot flows from segment to segment, as it
//! does around the circulant ring).

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use symple_core::{DepState, DepWidth, PullProgram, SignalOutcome, UdfExec};
use symple_graph::{Bitmap, Vid};
use symple_udf::ast::{BinOp, Expr, Stmt, UdfFn, UnOp};
use symple_udf::types::{Ty, Value};
use symple_udf::{check, compile, instrument, Op, PropArray, PropertyStore, UdfDep, UdfProgram};

/// Vertices in the property arrays.
const N: u32 = 24;

/// splitmix64: a tiny deterministic generator for the UDF grammar, seeded
/// per case by the property-test strategy.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

const CMP: [BinOp; 6] = [
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
];

fn int_lit(g: &mut Gen) -> Expr {
    Expr::i(g.below(9) as i64 - 3)
}

fn float_lit(g: &mut Gen) -> Expr {
    Expr::f(g.below(16) as f64 * 0.25 - 1.0)
}

fn vertex_lit(g: &mut Gen) -> Expr {
    Expr::Lit(Value::Vertex(Vid::new(g.below(u64::from(N)) as u32)))
}

/// A vertex-typed expression; `u` only inside the neighbour loop.
fn vertex_expr(g: &mut Gen, in_loop: bool) -> Expr {
    match g.below(if in_loop { 5 } else { 3 }) {
        0 => Expr::CurrentVertex,
        1 => Expr::prop_v("par"),
        2 => Expr::local("last"),
        3 => Expr::CurrentNeighbor,
        _ => Expr::prop_u("par"),
    }
}

/// An int-typed expression over `acc` and the `num` property.
fn int_expr(g: &mut Gen, in_loop: bool, depth: u32) -> Expr {
    if depth > 0 && g.chance(40) {
        return match g.below(3) {
            0 => {
                let op = g.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
                int_expr(g, in_loop, depth - 1).bin(op, int_expr(g, in_loop, depth - 1))
            }
            1 => int_expr(g, in_loop, depth - 1).add(int_lit(g)),
            _ => Expr::Unary(UnOp::Neg, Box::new(int_expr(g, in_loop, depth - 1))),
        };
    }
    match g.below(if in_loop { 5 } else { 3 }) {
        0 => int_lit(g),
        1 => Expr::local("acc"),
        2 => Expr::prop_v("num"),
        3 => Expr::prop_u("num"),
        _ => Expr::prop("num", Expr::prop_u("par")),
    }
}

/// A float-typed expression (always a `Float` value at run time, so a
/// float local never holds an int).
fn float_expr(g: &mut Gen, in_loop: bool) -> Expr {
    match g.below(if in_loop { 5 } else { 3 }) {
        0 => float_lit(g),
        1 => Expr::local("sum"),
        2 => Expr::prop_v("wt").add(int_lit(g)),
        3 => Expr::prop_u("wt"),
        _ => Expr::prop_u("num").bin(BinOp::Mul, Expr::prop_u("wt")),
    }
}

/// An int or float operand for a numeric comparison, paired with a
/// matching literal.
fn numeric_operand(g: &mut Gen, in_loop: bool) -> (Expr, Expr) {
    if g.chance(50) {
        (int_expr(g, in_loop, 1), int_lit(g))
    } else {
        (float_expr(g, in_loop), float_lit(g))
    }
}

/// A comparison with a literal on the right, on the left, or neither.
fn with_literal(g: &mut Gen, op: BinOp, expr: Expr, lit: Expr, other: Expr) -> Expr {
    match g.below(3) {
        0 => expr.bin(op, lit),
        1 => lit.bin(op, expr),
        _ => expr.bin(op, other),
    }
}

/// A bool-typed atom: property tests, the `hit` local, literals, and
/// int/float/vertex/bool comparisons.
fn bool_atom(g: &mut Gen, in_loop: bool) -> Expr {
    let op = g.pick(&CMP);
    match g.below(if in_loop { 9 } else { 6 }) {
        0 => Expr::local("hit"),
        1 => Expr::b(g.chance(50)),
        2 => Expr::prop_v("flag"),
        3 => {
            let (expr, lit) = numeric_operand(g, in_loop);
            let (other, _) = numeric_operand(g, in_loop);
            with_literal(g, op, expr, lit, other)
        }
        4 => {
            let expr = vertex_expr(g, in_loop);
            let lit = vertex_lit(g);
            let other = vertex_expr(g, in_loop);
            with_literal(g, op, expr, lit, other)
        }
        5 => {
            let op = g.pick(&[BinOp::Eq, BinOp::Ne]);
            let lit = Expr::b(g.chance(50));
            with_literal(g, op, Expr::local("hit"), lit, Expr::prop_v("active"))
        }
        6 => Expr::prop_u("active"),
        7 => Expr::prop_u("flag"),
        _ => {
            let (expr, lit) = numeric_operand(g, true);
            with_literal(g, op, expr, lit, Expr::prop_u("num"))
        }
    }
}

/// A condition: atoms combined with `&&`, `||` and `!` (including
/// `!(a && b)` and `!(a || b)`).
fn bool_expr(g: &mut Gen, in_loop: bool, depth: u32) -> Expr {
    if depth == 0 {
        return bool_atom(g, in_loop);
    }
    match g.below(5) {
        0 => bool_atom(g, in_loop),
        1 => bool_expr(g, in_loop, depth - 1).and(bool_expr(g, in_loop, depth - 1)),
        2 => bool_expr(g, in_loop, depth - 1).bin(BinOp::Or, bool_expr(g, in_loop, depth - 1)),
        3 => bool_expr(g, in_loop, depth - 1).not(),
        _ => {
            let op = g.pick(&[BinOp::And, BinOp::Or]);
            bool_expr(g, in_loop, depth - 1)
                .bin(op, bool_expr(g, in_loop, depth - 1))
                .not()
        }
    }
}

fn maybe_else(g: &mut Gen, stmts: Vec<Stmt>) -> Vec<Stmt> {
    if g.chance(50) {
        stmts
    } else {
        Vec::new()
    }
}

/// A checked random UDF with update type `int`:
///
/// ```text
/// let acc = <int>; let sum = <float>; let hit = false; let last = v;
/// for u in nbrs {
///     if C1 {
///         acc = <int>; sum = <float>;
///         if C2 { emit(<int>); [hit = C; last = <vertex>; break] } [else { ... }]
///     } [else { hit = C; [if C3 { break | return }] }]
/// }
/// if C4 { emit(acc) } [else { emit(<int>) }]
/// ```
fn random_udf(seed: u64) -> UdfFn {
    let g = &mut Gen(seed);
    let mut inner = vec![Stmt::Emit(int_expr(g, true, 2))];
    if g.chance(70) {
        inner.push(Stmt::assign("hit", bool_expr(g, true, 1)));
        inner.push(Stmt::assign("last", vertex_expr(g, true)));
        inner.push(Stmt::Break);
    }
    let inner_else = vec![Stmt::assign("acc", int_expr(g, true, 1))];
    let then = vec![
        Stmt::assign("acc", int_expr(g, true, 2)),
        Stmt::assign("sum", Expr::local("sum").add(float_expr(g, true))),
        Stmt::if_else(bool_expr(g, true, 2), inner, maybe_else(g, inner_else)),
    ];
    let exit = if g.chance(80) {
        Stmt::Break
    } else {
        Stmt::Return
    };
    let outer_else = vec![
        Stmt::assign("hit", bool_expr(g, true, 2)),
        Stmt::if_(bool_expr(g, true, 1), vec![exit]),
    ];
    let epilogue_else = vec![Stmt::Emit(int_expr(g, false, 1))];
    UdfFn::new(
        "differential",
        Ty::Int,
        vec![
            Stmt::let_("acc", Ty::Int, int_lit(g)),
            Stmt::let_("sum", Ty::Float, float_lit(g)),
            Stmt::let_("hit", Ty::Bool, Expr::b(false)),
            Stmt::let_("last", Ty::Vertex, Expr::CurrentVertex),
            Stmt::for_neighbors(vec![Stmt::if_else(
                bool_expr(g, true, 3),
                then,
                maybe_else(g, outer_else),
            )]),
            Stmt::if_else(
                bool_expr(g, false, 2),
                vec![Stmt::Emit(Expr::local("acc"))],
                maybe_else(g, epilogue_else),
            ),
        ],
    )
}

/// The property arrays every generated UDF reads, filled from `seed`.
fn random_props(seed: u64) -> PropertyStore {
    let g = &mut Gen(seed ^ 0x5eed);
    let mut active = Bitmap::new(N as usize);
    let mut flag = Bitmap::new(N as usize);
    for i in 0..N as usize {
        if g.chance(60) {
            active.set(i);
        }
        if g.chance(40) {
            flag.set(i);
        }
    }
    let mut props = PropertyStore::new();
    props
        .insert("active", PropArray::Bools(active))
        .insert("flag", PropArray::Bools(flag))
        .insert(
            "num",
            PropArray::Ints((0..N).map(|_| g.below(11) as i64 - 5).collect()),
        )
        .insert(
            "wt",
            PropArray::Floats((0..N).map(|_| g.below(12) as f64 * 0.25).collect()),
        )
        .insert(
            "par",
            PropArray::Vertices((0..N).map(|_| g.below(u64::from(N)) as u32).collect()),
        );
    props
}

/// Everything one signal call can observe.
#[derive(Debug, PartialEq)]
struct Observed {
    emitted: Vec<u64>,
    outcome: SignalOutcome,
    skip: bool,
    /// Each carried value as (type, bits): `to_bits` alone would equate
    /// `Int(1)` with `Bool(true)`.
    carried: Vec<(Ty, u64)>,
}

fn call(
    prog: &UdfProgram,
    dep: &mut UdfDep,
    arity: usize,
    v: Vid,
    srcs: &[Vid],
    slot: usize,
    carried: bool,
) -> Observed {
    let mut emitted = Vec::new();
    let outcome = prog.signal(v, srcs, dep, slot, carried, &mut |x| emitted.push(x));
    Observed {
        emitted,
        outcome,
        skip: dep.should_skip(slot),
        carried: (0..arity)
            .map(|i| {
                let val = dep.value(slot, i);
                (val.ty(), val.to_bits())
            })
            .collect(),
    }
}

/// Random neighbour segments for one destination: 1..=4 segments of
/// 0..=6 neighbours each.
fn segments(g: &mut Gen) -> Vec<Vec<Vid>> {
    (0..=g.below(4))
        .map(|_| {
            (0..g.below(7))
                .map(|_| Vid::new(g.below(u64::from(N)) as u32))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn vm_matches_interpreter_per_signal(udf_seed in any::<u64>(), data_seed in any::<u64>()) {
        let udf = random_udf(udf_seed);
        let props = random_props(data_seed);
        prop_assert!(
            check(&udf, &props.schema()).is_ok(),
            "generated UDF must pass the checker: {:?}",
            check(&udf, &props.schema())
        );
        let inst = instrument(&udf).expect("instrumentation");
        let arity = inst.info.carried.len();
        let interp = UdfProgram::new(&inst, &props)
            .exec(UdfExec::Interp)
            .dep_width(DepWidth::Wide);
        let vm = UdfProgram::new(&inst, &props)
            .exec(UdfExec::Bytecode)
            .dep_width(DepWidth::Wide);
        prop_assert!(vm.uses_bytecode(), "generated UDF fell back to the interpreter");
        prop_assert!(!interp.uses_bytecode());

        let g = &mut Gen(data_seed);
        let slots = 4;
        let mut dep_i = interp.make_dep(slots);
        let mut dep_b = vm.make_dep(slots);
        for round in 0..6 {
            let v = Vid::new(g.below(u64::from(N)) as u32);
            let slot = round % slots;
            // The scratch path resets the slot before every segment; the
            // carried path resets it once and lets it flow on.
            let carried = g.chance(50);
            dep_i.reset_range(slot..slot + 1);
            dep_b.reset_range(slot..slot + 1);
            for srcs in segments(g) {
                if !carried {
                    dep_i.reset_range(slot..slot + 1);
                    dep_b.reset_range(slot..slot + 1);
                }
                let want = call(&interp, &mut dep_i, arity, v, &srcs, slot, carried);
                let got = call(&vm, &mut dep_b, arity, v, &srcs, slot, carried);
                prop_assert_eq!(
                    &want,
                    &got,
                    "executors diverged (carried = {}) on v = {:?}, srcs = {:?}\n{}",
                    carried,
                    v,
                    srcs,
                    symple_udf::pretty(&inst.udf)
                );
            }
        }
    }
}

/// The grammar above must actually reach what the lowering fuses: every
/// fused op kind appears across a few dozen programs, and some programs
/// carry locals (so the carried path restores and snapshots values).
#[test]
fn generated_udfs_reach_every_fused_op() {
    let mut carrying = 0;
    let mut seen = [false; 7];
    for seed in 0..64 {
        let inst = instrument(&random_udf(seed)).expect("instrumentation");
        if !inst.info.carried.is_empty() {
            carrying += 1;
        }
        for op in compile(&inst).expect("compiles").ops() {
            let kind = match op {
                Op::LoadPropU { .. } => 0,
                Op::BinaryImm { .. } => 1,
                Op::JumpIfNotCmp { .. } => 2,
                Op::JumpIfNotCmpImm { .. } => 3,
                Op::JumpIfPropUFalse { .. } => 4,
                Op::JumpIfTrue { .. } => 5,
                Op::LoadProp { .. } => 6,
                _ => continue,
            };
            seen[kind] = true;
        }
    }
    assert!(carrying >= 16, "only {carrying}/64 programs carry locals");
    assert_eq!(seen, [true; 7], "a fused op kind was never generated");
}

/// Runs `prog` on one segment and returns the panic message, if any.
fn panic_message(prog: &UdfProgram, srcs: &[Vid]) -> Option<String> {
    let mut dep = prog.make_dep(1);
    let run = catch_unwind(AssertUnwindSafe(|| {
        prog.signal(Vid::new(0), srcs, &mut dep, 0, false, &mut |_| {})
    }));
    run.err().map(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

#[test]
fn nan_comparison_panics_under_both_executors() {
    let mut props = PropertyStore::new();
    props.insert("w", PropArray::Floats(vec![0.5, f64::NAN, 1.0]));
    let nan_at_u = Expr::prop_u("w");
    // One condition per fused shape: literal on the right, literal on
    // the left, register against register, and a value-context compare.
    let bodies = [
        Stmt::if_(
            nan_at_u.clone().lt(Expr::f(2.0)),
            vec![Stmt::Emit(Expr::i(1))],
        ),
        Stmt::if_(
            Expr::f(2.0).ge(nan_at_u.clone()),
            vec![Stmt::Emit(Expr::i(1))],
        ),
        Stmt::if_(
            nan_at_u.clone().bin(BinOp::Ne, Expr::prop_v("w")),
            vec![Stmt::Emit(Expr::i(1))],
        ),
        Stmt::assign("hit", nan_at_u.bin(BinOp::Le, Expr::i(3))),
    ];
    for body in bodies {
        let udf = UdfFn::new(
            "nan",
            Ty::Int,
            vec![
                Stmt::let_("hit", Ty::Bool, Expr::b(false)),
                Stmt::for_neighbors(vec![body]),
            ],
        );
        check(&udf, &props.schema()).expect("checks");
        let inst = instrument(&udf).expect("instrumentation");
        let interp = UdfProgram::new(&inst, &props).exec(UdfExec::Interp);
        let vm = UdfProgram::new(&inst, &props).exec(UdfExec::Bytecode);
        assert!(vm.uses_bytecode());
        let srcs = [Vid::new(0), Vid::new(1), Vid::new(2)];
        for prog in [&interp, &vm] {
            let msg = panic_message(prog, &srcs).expect("a NaN comparison must panic");
            assert!(msg.contains("NaN in comparison"), "unexpected panic: {msg}");
        }
        // Without the NaN neighbour neither executor panics.
        for prog in [&interp, &vm] {
            assert_eq!(panic_message(prog, &[Vid::new(0), Vid::new(2)]), None);
        }
    }
}

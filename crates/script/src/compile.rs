//! EVscript AST → bytecode compiler.
//!
//! Compiles a parsed program into a [`Chunk`]: numbers and strings are
//! interned into per-chunk constant tables, every variable reference is
//! resolved at compile time to a *scope slot* (locals by frame index,
//! globals by table index — the VM never does a name lookup at
//! runtime), and each function body becomes a [`Proto`] of fixed-width
//! [`Op`]s.
//!
//! # Step identity with the tree-walker
//!
//! The walker charges one step per statement executed, one per
//! expression node evaluated, and one per loop iteration, and errors
//! with "step limit exceeded" at the first tick past the budget. The
//! compiler reproduces this exactly by emitting an explicit
//! [`Op::Step`] at every walker tick point, coalescing *adjacent*
//! same-line charges (legal because nothing observable happens between
//! two adjacent ticks, and the error line is the same for both).
//! Coalescing never crosses a jump target: a label seals the pending
//! step so a back edge cannot skip (or double) a charge.
//!
//! # Scope model
//!
//! EVscript scoping is dynamic two-level: the innermost call frame,
//! then globals; *whether* a name is defined can depend on control flow
//! (`if c { let x = 1; } print(x);`). The compiler therefore collects
//! every name a scope *could* define (recursing through control-flow
//! blocks but not into nested `fn` literals) and assigns it a slot
//! holding `Option<Value>`; loads and stores check definedness at
//! runtime with the walker's exact local-then-global fallthrough.

use crate::ast::{BinOp, Expr, ExprKind, Stmt, StmtKind, UnOp};
use crate::ScriptError;
use std::collections::HashMap;

/// "No slot" sentinel for [`Op`] local/global fields.
pub(crate) const NO_SLOT: u16 = u16::MAX;

/// Maximum call depth, matching the walker's `frames.len() >= 64`.
pub(crate) const MAX_CALL_DEPTH: usize = 64;

/// The builtin functions, mirrored from `interp::is_builtin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    Print,
    Len,
    Push,
    Str,
    Abs,
    Floor,
    Sqrt,
    Min,
    Max,
    Range,
    NodeCount,
    Nodes,
    Name,
    File,
    Line,
    Module,
    Parent,
    Children,
    Value,
    SetValue,
    AddMetric,
    Total,
    Metrics,
    Visit,
    Derive,
    MapNodes,
}

impl Builtin {
    fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "print" => Builtin::Print,
            "len" => Builtin::Len,
            "push" => Builtin::Push,
            "str" => Builtin::Str,
            "abs" => Builtin::Abs,
            "floor" => Builtin::Floor,
            "sqrt" => Builtin::Sqrt,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "range" => Builtin::Range,
            "node_count" => Builtin::NodeCount,
            "nodes" => Builtin::Nodes,
            "name" => Builtin::Name,
            "file" => Builtin::File,
            "line" => Builtin::Line,
            "module" => Builtin::Module,
            "parent" => Builtin::Parent,
            "children" => Builtin::Children,
            "value" => Builtin::Value,
            "set_value" => Builtin::SetValue,
            "add_metric" => Builtin::AddMetric,
            "total" => Builtin::Total,
            "metrics" => Builtin::Metrics,
            "visit" => Builtin::Visit,
            "derive" => Builtin::Derive,
            "map_nodes" => Builtin::MapNodes,
            _ => return None,
        })
    }

    /// The builtin's source-level name (disassembly).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Builtin::Print => "print",
            Builtin::Len => "len",
            Builtin::Push => "push",
            Builtin::Str => "str",
            Builtin::Abs => "abs",
            Builtin::Floor => "floor",
            Builtin::Sqrt => "sqrt",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Range => "range",
            Builtin::NodeCount => "node_count",
            Builtin::Nodes => "nodes",
            Builtin::Name => "name",
            Builtin::File => "file",
            Builtin::Line => "line",
            Builtin::Module => "module",
            Builtin::Parent => "parent",
            Builtin::Children => "children",
            Builtin::Value => "value",
            Builtin::SetValue => "set_value",
            Builtin::AddMetric => "add_metric",
            Builtin::Total => "total",
            Builtin::Metrics => "metrics",
            Builtin::Visit => "visit",
            Builtin::Derive => "derive",
            Builtin::MapNodes => "map_nodes",
        }
    }

    /// Whether calling this builtin is free of observable side effects
    /// (profile writes, stdout) — the purity analysis whitelist.
    pub(crate) fn is_pure(self) -> bool {
        !matches!(
            self,
            Builtin::Print
                | Builtin::SetValue
                | Builtin::AddMetric
                | Builtin::Visit
                | Builtin::Derive
                | Builtin::MapNodes
        )
    }
}

/// A fixed-width bytecode instruction. `local`/`global` fields are slot
/// indices ([`NO_SLOT`] = the name has no slot in that scope); `to`/
/// `end` are absolute instruction indices within the proto.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// Charge `n` interpreter steps at `line` (errors "step limit
    /// exceeded" exactly where the walker's `tick` would).
    Step { n: u32, line: u32 },
    /// Push number constant.
    Num { idx: u16 },
    /// Push string constant.
    Str { idx: u16 },
    /// Push boolean.
    Bool { value: bool },
    /// Push nil.
    Nil,
    /// Pop `len` values, push them as a fresh list.
    MakeList { len: u16 },
    /// Push a variable: local slot if defined, else global slot if
    /// defined, else "undefined variable" (`name` for the message).
    Load { local: u16, global: u16, name: u16, line: u32 },
    /// Pop and assign: local slot if defined, else global slot if
    /// defined, else "assignment to undefined variable".
    Store { local: u16, global: u16, name: u16, line: u32 },
    /// Pop and define (unconditionally) into the one slot that is set.
    Define { local: u16, global: u16 },
    /// Pop and discard.
    Pop,
    /// Pop, apply unary op, push.
    Unary { op: UnOp, line: u32 },
    /// Pop rhs then lhs, apply non-short-circuit binary op, push.
    Bin { op: BinOp, line: u32 },
    /// Error unless the top of stack is a bool ("condition must be a
    /// bool"); leaves it in place.
    CheckBool { line: u32 },
    /// `&&`: pop; non-bool errors; `false` pushes `false` and jumps.
    AndShort { to: u32, line: u32 },
    /// `||`: pop; non-bool errors; `true` pushes `true` and jumps.
    OrShort { to: u32, line: u32 },
    /// Pop; non-bool errors; `false` jumps.
    JumpIfFalse { to: u32, line: u32 },
    /// Pop index then list, push element.
    Index { line: u32 },
    /// Pop index, list, value; store element.
    StoreIndex { line: u32 },
    /// Push a fresh function value for prototype `proto`.
    MakeFunc { proto: u16 },
    /// Pop `argc` args then the callee, call it, push the result.
    Call { argc: u16, line: u32 },
    /// Pop `argc` args, run the builtin, push the result.
    CallBuiltin { id: Builtin, argc: u16, line: u32 },
    /// Builtin-shadowing dispatch (`is_builtin(name)` but the name has
    /// a slot): if the name is *undefined* at runtime, push a builtin
    /// flag and jump to the shared argument code at `to`; otherwise
    /// push a callee flag and fall through to evaluate the variable.
    FlexEnter { local: u16, global: u16, to: u32, id: Builtin },
    /// Pop the innermost flex flag and dispatch: builtin call or value
    /// call of the already-evaluated callee under the args.
    FlexCall { argc: u16, line: u32 },
    /// Unconditional jump.
    Jump { to: u32 },
    /// Pop the iterable, error unless it is a list ("for expects a
    /// list"), push an iteration snapshot.
    ForPrep { line: u32 },
    /// Advance the innermost iteration: exhausted pops it and jumps to
    /// `end`; otherwise charge one step and define the loop variable.
    ForLoop { local: u16, global: u16, end: u32, line: u32 },
    /// Discard the innermost iteration state (`break` out of a `for`).
    IterPop,
    /// `break`/`continue` outside any loop: error at the call site (or
    /// line 0 at top level), like the walker's flow propagation.
    LoopErr,
    /// Return from the proto (`has_value` pops the result; otherwise
    /// the result is nil).
    Ret { has_value: bool },
    // ---- fused superinstructions (peephole pass) --------------------
    //
    // Dispatch — the indirect branch at the top of the VM loop — is the
    // dominant per-op cost, so the peephole pass merges the most common
    // adjacent pairs/triples into one instruction. Fusion never crosses
    // a jump target and never changes charge boundaries, error lines,
    // or evaluation order; it only removes dispatches.
    /// Fused `Step` + `Num`: charge, then push the number constant.
    StepNum { n: u16, idx: u16, line: u32 },
    /// Fused `Step` + `Str`: charge, then push the string constant.
    StepStr { n: u16, idx: u16, line: u32 },
    /// Fused `Step` + `Load`: charge, then load. Fused only when both
    /// halves carry the same line, so one field serves the step's
    /// exhaustion error and the load's "undefined variable".
    StepLoad { n: u16, local: u16, global: u16, name: u16, line: u32 },
    /// Fused `Step` + `Num` + `Bin`: charge, then apply `op` to the
    /// popped lhs with the number constant as rhs. Same same-line
    /// fusion rule as [`Op::StepLoad`].
    StepNumBin { n: u16, idx: u16, op: BinOp, line: u32 },
}

// Every op is fetched by value per dispatch, so the enum staying at
// two words is part of the VM's perf contract; fusion candidates that
// would widen it are skipped by the peephole pass instead.
const _: () = assert!(std::mem::size_of::<Op>() <= 16);

/// A compiled function body (proto 0 is the top level).
#[derive(Debug)]
pub(crate) struct Proto {
    pub(crate) code: Vec<Op>,
    pub(crate) arity: usize,
    /// Local slot for each declared parameter, in declaration order
    /// (duplicate parameter names share a slot; the last one wins).
    pub(crate) param_slots: Vec<u16>,
    pub(crate) n_locals: usize,
    /// String-table index of each local's name (disassembly).
    pub(crate) local_names: Vec<u16>,
    /// True when every op is side-effect free and touches no globals —
    /// the condition for fanning node callbacks out over `ev-par`.
    pub(crate) pure: bool,
}

/// A compiled program: prototypes plus shared constant tables. Owns no
/// interior mutability, so a `&Chunk` is shared freely across worker
/// threads.
#[derive(Debug)]
pub(crate) struct Chunk {
    pub(crate) protos: Vec<Proto>,
    pub(crate) numbers: Vec<f64>,
    pub(crate) strings: Vec<String>,
    /// String-table index of each global's name, in first-definition
    /// order (the global slot table).
    pub(crate) global_names: Vec<u16>,
}

/// Static tables overflowed their index width (u16 constants/slots,
/// u32 code offsets). The host reports it as a "program too large"
/// error before anything runs.
#[derive(Debug)]
pub(crate) struct Overflow;

impl From<Overflow> for ScriptError {
    /// More than 65,534 distinct number constants, strings, functions,
    /// globals, locals in one function, list items, or call arguments
    /// (the limit docs/EVSCRIPT.md states).
    fn from(_: Overflow) -> ScriptError {
        ScriptError::new(
            "program too large: over 65534 constants, names, functions, list items or call arguments",
            0,
        )
    }
}

/// Compiles a program. `Err(Overflow)` only for pathologically large
/// programs (more than 65534 distinct constants/globals/protos).
pub(crate) fn compile(program: &[Stmt]) -> Result<Chunk, Overflow> {
    let mut c = Compiler::default();
    let mut globals = Vec::new();
    collect_defs(program, &mut globals);
    for name in globals {
        let idx = c.intern_string(&name)?;
        if c.global_slots.len() >= NO_SLOT as usize {
            return Err(Overflow);
        }
        c.global_slots.insert(name, c.chunk_global_names.len() as u16);
        c.chunk_global_names.push(idx);
    }
    c.compile_proto(&[], program, true)?;
    Ok(Chunk {
        protos: c.protos,
        numbers: c.numbers,
        strings: c.strings,
        global_names: c.chunk_global_names,
    })
}

/// Names a statement list can define in its own scope: `let`, `fn`,
/// and `for` variables, recursing through control-flow blocks but not
/// into function literals (those define in their own frame).
fn collect_defs(stmts: &[Stmt], out: &mut Vec<String>) {
    let add = |name: &str, out: &mut Vec<String>| {
        if !out.iter().any(|n| n == name) {
            out.push(name.to_owned());
        }
    };
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::Let(name, _) => add(name, out),
            StmtKind::FnDef(name, _, _) => add(name, out),
            StmtKind::For(var, _, body) => {
                add(var, out);
                collect_defs(body, out);
            }
            StmtKind::If(_, then, otherwise) => {
                collect_defs(then, out);
                collect_defs(otherwise, out);
            }
            StmtKind::While(_, body) => collect_defs(body, out),
            StmtKind::Assign(..)
            | StmtKind::Return(_)
            | StmtKind::Break
            | StmtKind::Continue
            | StmtKind::Expr(_) => {}
        }
    }
}

/// Per-loop compile state for `break`/`continue` resolution.
struct LoopCtx {
    /// Jump target for `continue` (the cond label or the `ForLoop` op).
    continue_to: u32,
    /// `Jump` op indices to patch to the loop end.
    break_jumps: Vec<usize>,
}

/// Compile state for one proto.
struct FnState {
    code: Vec<Op>,
    locals: Vec<String>,
    local_names: Vec<u16>,
    loops: Vec<LoopCtx>,
    /// Index of a trailing `Step` op still eligible for same-line
    /// coalescing; cleared by any other emission or by a label.
    open_step: Option<usize>,
    is_top: bool,
}

#[derive(Default)]
struct Compiler {
    protos: Vec<Proto>,
    numbers: Vec<f64>,
    number_slots: HashMap<u64, u16>,
    strings: Vec<String>,
    string_slots: HashMap<String, u16>,
    global_slots: HashMap<String, u16>,
    chunk_global_names: Vec<u16>,
}

impl Compiler {
    fn intern_number(&mut self, n: f64) -> Result<u16, Overflow> {
        if let Some(&idx) = self.number_slots.get(&n.to_bits()) {
            return Ok(idx);
        }
        let idx = u16::try_from(self.numbers.len()).map_err(|_| Overflow)?;
        if idx == NO_SLOT {
            return Err(Overflow);
        }
        self.number_slots.insert(n.to_bits(), idx);
        self.numbers.push(n);
        Ok(idx)
    }

    fn intern_string(&mut self, s: &str) -> Result<u16, Overflow> {
        if let Some(&idx) = self.string_slots.get(s) {
            return Ok(idx);
        }
        let idx = u16::try_from(self.strings.len()).map_err(|_| Overflow)?;
        if idx == NO_SLOT {
            return Err(Overflow);
        }
        self.string_slots.insert(s.to_owned(), idx);
        self.strings.push(s.to_owned());
        Ok(idx)
    }

    /// Compiles one function body (or the top level) to a proto,
    /// returning its index. Nested `fn` literals recurse.
    fn compile_proto(
        &mut self,
        params: &[String],
        body: &[Stmt],
        is_top: bool,
    ) -> Result<u16, Overflow> {
        let proto_idx = u16::try_from(self.protos.len()).map_err(|_| Overflow)?;
        if proto_idx == NO_SLOT {
            return Err(Overflow);
        }
        // Reserve the slot so nested protos number after this one.
        self.protos.push(Proto {
            code: Vec::new(),
            arity: params.len(),
            param_slots: Vec::new(),
            n_locals: 0,
            local_names: Vec::new(),
            pure: false,
        });

        let mut f = FnState {
            code: Vec::new(),
            locals: Vec::new(),
            local_names: Vec::new(),
            loops: Vec::new(),
            open_step: None,
            is_top,
        };
        if !is_top {
            let mut defs: Vec<String> = params.to_vec();
            defs.dedup_by(|a, b| a == b);
            // Params first (in declaration order), then body defines.
            let mut names: Vec<String> = Vec::new();
            for p in &defs {
                if !names.iter().any(|n| n == p) {
                    names.push(p.clone());
                }
            }
            collect_defs(body, &mut names);
            if names.len() >= NO_SLOT as usize {
                return Err(Overflow);
            }
            for name in names {
                f.local_names.push(self.intern_string(&name)?);
                f.locals.push(name);
            }
        }
        let param_slots: Vec<u16> = params
            .iter()
            .map(|p| f.locals.iter().position(|n| n == p).expect("param collected") as u16)
            .collect();

        for stmt in body {
            self.compile_stmt(&mut f, stmt)?;
        }
        self.emit(&mut f, Op::Ret { has_value: false });
        f.code = peephole(f.code);

        let pure = scan_purity(&f.code, &self.protos);
        let proto = &mut self.protos[proto_idx as usize];
        proto.code = f.code;
        proto.param_slots = param_slots;
        proto.n_locals = f.locals.len();
        proto.local_names = f.local_names;
        proto.pure = pure;
        Ok(proto_idx)
    }

    // ---- emission helpers -------------------------------------------

    fn emit(&mut self, f: &mut FnState, op: Op) {
        let _ = self;
        f.open_step = None;
        f.code.push(op);
    }

    /// Emits one walker tick, coalescing into an immediately preceding
    /// same-line `Step` when no label separates them.
    fn emit_step(&mut self, f: &mut FnState, line: usize) {
        let line = line_u32(line);
        if let Some(idx) = f.open_step {
            if let Op::Step { n, line: l } = &mut f.code[idx] {
                if *l == line {
                    *n += 1;
                    return;
                }
            }
        }
        f.code.push(Op::Step { n: 1, line });
        f.open_step = Some(f.code.len() - 1);
    }

    /// Current position as a jump target; seals step coalescing so a
    /// jump here cannot skip a charge merged across the label.
    fn label(&mut self, f: &mut FnState) -> u32 {
        let _ = self;
        f.open_step = None;
        f.code.len() as u32
    }

    /// Emits a placeholder jump-like op, returning its index to patch.
    fn emit_patch(&mut self, f: &mut FnState, op: Op) -> usize {
        self.emit(f, op);
        f.code.len() - 1
    }

    /// Points the pending jump at `op_idx` to the current position.
    fn patch_here(&mut self, f: &mut FnState, op_idx: usize) {
        let to = self.label(f);
        match &mut f.code[op_idx] {
            Op::Jump { to: t }
            | Op::JumpIfFalse { to: t, .. }
            | Op::AndShort { to: t, .. }
            | Op::OrShort { to: t, .. }
            | Op::FlexEnter { to: t, .. }
            | Op::ForLoop { end: t, .. } => *t = to,
            other => unreachable!("not a patchable op: {other:?}"),
        }
    }

    /// Slot resolution with the walker's lookup rule: the innermost
    /// frame's statically collected names, then the global table.
    fn resolve(&mut self, f: &FnState, name: &str) -> Result<(u16, u16, u16), Overflow> {
        let local = if f.is_top {
            NO_SLOT
        } else {
            f.locals
                .iter()
                .position(|n| n == name)
                .map_or(NO_SLOT, |i| i as u16)
        };
        let global = self.global_slots.get(name).copied().unwrap_or(NO_SLOT);
        let name_idx = self.intern_string(name)?;
        Ok((local, global, name_idx))
    }

    /// Slot for an unconditional define (`let`, `fn`, `for` var): the
    /// current frame in a function, the global table at top level.
    fn resolve_define(&mut self, f: &FnState, name: &str) -> (u16, u16) {
        if f.is_top {
            let global = *self.global_slots.get(name).expect("collected global");
            (NO_SLOT, global)
        } else {
            let local = f.locals.iter().position(|n| n == name).expect("collected local");
            (local as u16, NO_SLOT)
        }
    }

    // ---- statements -------------------------------------------------

    fn compile_stmt(&mut self, f: &mut FnState, stmt: &Stmt) -> Result<(), Overflow> {
        // The walker ticks once on statement entry.
        self.emit_step(f, stmt.line);
        match &stmt.kind {
            StmtKind::Let(name, expr) => {
                self.compile_expr(f, expr)?;
                let (local, global) = self.resolve_define(f, name);
                self.emit(f, Op::Define { local, global });
            }
            StmtKind::Assign(target, expr) => match &target.kind {
                ExprKind::Ident(name) => {
                    self.compile_expr(f, expr)?;
                    let (local, global, name_idx) = self.resolve(f, name)?;
                    self.emit(
                        f,
                        Op::Store {
                            local,
                            global,
                            name: name_idx,
                            line: line_u32(stmt.line),
                        },
                    );
                }
                ExprKind::Index(list, index) => {
                    // Walker order: value, then list, then index.
                    self.compile_expr(f, expr)?;
                    self.compile_expr(f, list)?;
                    self.compile_expr(f, index)?;
                    self.emit(f, Op::StoreIndex { line: line_u32(stmt.line) });
                }
                _ => unreachable!("parser rejects other targets"),
            },
            StmtKind::If(cond, then, otherwise) => {
                self.compile_expr(f, cond)?;
                let to_else =
                    self.emit_patch(f, Op::JumpIfFalse { to: 0, line: line_u32(cond.line) });
                for s in then {
                    self.compile_stmt(f, s)?;
                }
                if otherwise.is_empty() {
                    self.patch_here(f, to_else);
                } else {
                    let to_end = self.emit_patch(f, Op::Jump { to: 0 });
                    self.patch_here(f, to_else);
                    for s in otherwise {
                        self.compile_stmt(f, s)?;
                    }
                    self.patch_here(f, to_end);
                }
            }
            StmtKind::While(cond, body) => {
                let cond_label = self.label(f);
                self.compile_expr(f, cond)?;
                let to_end =
                    self.emit_patch(f, Op::JumpIfFalse { to: 0, line: line_u32(cond.line) });
                // The walker ticks once more per iteration, after the
                // condition passes and before the body runs.
                self.emit_step(f, stmt.line);
                f.loops.push(LoopCtx {
                    continue_to: cond_label,
                    break_jumps: Vec::new(),
                });
                for s in body {
                    self.compile_stmt(f, s)?;
                }
                self.emit(f, Op::Jump { to: cond_label });
                let ctx = f.loops.pop().expect("loop ctx");
                for jump in ctx.break_jumps {
                    self.patch_here(f, jump);
                }
                self.patch_here(f, to_end);
            }
            StmtKind::For(var, iterable, body) => {
                self.compile_expr(f, iterable)?;
                self.emit(f, Op::ForPrep { line: line_u32(stmt.line) });
                let head = self.label(f);
                let (local, global) = self.resolve_define(f, var);
                let for_op = self.emit_patch(
                    f,
                    Op::ForLoop { local, global, end: 0, line: line_u32(stmt.line) },
                );
                f.loops.push(LoopCtx {
                    continue_to: head,
                    break_jumps: Vec::new(),
                });
                for s in body {
                    self.compile_stmt(f, s)?;
                }
                self.emit(f, Op::Jump { to: head });
                let ctx = f.loops.pop().expect("loop ctx");
                // `ForLoop` pops the iteration state on natural
                // exhaustion; `break` jumps land after an `IterPop`.
                self.patch_here(f, for_op);
                if !ctx.break_jumps.is_empty() {
                    let to_end = self.emit_patch(f, Op::Jump { to: 0 });
                    for jump in ctx.break_jumps {
                        self.patch_here(f, jump);
                    }
                    self.emit(f, Op::IterPop);
                    self.patch_here(f, to_end);
                }
            }
            StmtKind::FnDef(name, params, body) => {
                let proto = self.compile_proto(params, body, false)?;
                self.emit(f, Op::MakeFunc { proto });
                let (local, global) = self.resolve_define(f, name);
                self.emit(f, Op::Define { local, global });
            }
            StmtKind::Break => {
                if f.loops.is_empty() {
                    self.emit(f, Op::LoopErr);
                } else {
                    // For `for` loops the break target runs IterPop
                    // before falling through to the loop end.
                    let jump = self.emit_patch(f, Op::Jump { to: 0 });
                    f.loops.last_mut().expect("loop ctx").break_jumps.push(jump);
                }
            }
            StmtKind::Continue => match f.loops.last() {
                Some(ctx) => {
                    let to = ctx.continue_to;
                    self.emit(f, Op::Jump { to });
                }
                None => self.emit(f, Op::LoopErr),
            },
            StmtKind::Return(expr) => {
                let has_value = expr.is_some();
                if let Some(e) = expr {
                    self.compile_expr(f, e)?;
                }
                self.emit(f, Op::Ret { has_value });
            }
            StmtKind::Expr(expr) => {
                self.compile_expr(f, expr)?;
                self.emit(f, Op::Pop);
            }
        }
        Ok(())
    }

    // ---- expressions ------------------------------------------------

    fn compile_expr(&mut self, f: &mut FnState, expr: &Expr) -> Result<(), Overflow> {
        // The walker ticks once on every expression node.
        self.emit_step(f, expr.line);
        match &expr.kind {
            ExprKind::Number(n) => {
                let idx = self.intern_number(*n)?;
                self.emit(f, Op::Num { idx });
            }
            ExprKind::Str(s) => {
                let idx = self.intern_string(s)?;
                self.emit(f, Op::Str { idx });
            }
            ExprKind::Bool(b) => self.emit(f, Op::Bool { value: *b }),
            ExprKind::Nil => self.emit(f, Op::Nil),
            ExprKind::Ident(name) => {
                let (local, global, name_idx) = self.resolve(f, name)?;
                self.emit(
                    f,
                    Op::Load { local, global, name: name_idx, line: line_u32(expr.line) },
                );
            }
            ExprKind::List(items) => {
                if items.len() >= NO_SLOT as usize {
                    return Err(Overflow);
                }
                for item in items {
                    self.compile_expr(f, item)?;
                }
                self.emit(f, Op::MakeList { len: items.len() as u16 });
            }
            ExprKind::Unary(op, operand) => {
                self.compile_expr(f, operand)?;
                self.emit(f, Op::Unary { op: *op, line: line_u32(expr.line) });
            }
            ExprKind::Binary(op, lhs, rhs) => match op {
                BinOp::And => {
                    self.compile_expr(f, lhs)?;
                    let short =
                        self.emit_patch(f, Op::AndShort { to: 0, line: line_u32(lhs.line) });
                    self.compile_expr(f, rhs)?;
                    self.emit(f, Op::CheckBool { line: line_u32(rhs.line) });
                    self.patch_here(f, short);
                }
                BinOp::Or => {
                    self.compile_expr(f, lhs)?;
                    let short =
                        self.emit_patch(f, Op::OrShort { to: 0, line: line_u32(lhs.line) });
                    self.compile_expr(f, rhs)?;
                    self.emit(f, Op::CheckBool { line: line_u32(rhs.line) });
                    self.patch_here(f, short);
                }
                _ => {
                    self.compile_expr(f, lhs)?;
                    self.compile_expr(f, rhs)?;
                    self.emit(f, Op::Bin { op: *op, line: line_u32(expr.line) });
                }
            },
            ExprKind::Index(list, index) => {
                self.compile_expr(f, list)?;
                self.compile_expr(f, index)?;
                self.emit(f, Op::Index { line: line_u32(expr.line) });
            }
            ExprKind::Function(params, body) => {
                let proto = self.compile_proto(params, body, false)?;
                self.emit(f, Op::MakeFunc { proto });
            }
            ExprKind::Call(callee, args) => {
                if args.len() >= NO_SLOT as usize {
                    return Err(Overflow);
                }
                let argc = args.len() as u16;
                let line = line_u32(expr.line);
                if let ExprKind::Ident(name) = &callee.kind {
                    if let Some(id) = Builtin::from_name(name) {
                        let (local, global, _) = self.resolve(f, name)?;
                        if local == NO_SLOT && global == NO_SLOT {
                            // Never definable: always the builtin.
                            for arg in args {
                                self.compile_expr(f, arg)?;
                            }
                            self.emit(f, Op::CallBuiltin { id, argc, line });
                            return Ok(());
                        }
                        // Shadowable: dispatch on runtime definedness,
                        // sharing the argument code between both paths.
                        let enter =
                            self.emit_patch(f, Op::FlexEnter { local, global, to: 0, id });
                        self.compile_expr(f, callee)?;
                        self.patch_here(f, enter);
                        for arg in args {
                            self.compile_expr(f, arg)?;
                        }
                        self.emit(f, Op::FlexCall { argc, line });
                        return Ok(());
                    }
                }
                self.compile_expr(f, callee)?;
                for arg in args {
                    self.compile_expr(f, arg)?;
                }
                self.emit(f, Op::Call { argc, line });
            }
        }
        Ok(())
    }
}

fn line_u32(line: usize) -> u32 {
    u32::try_from(line).unwrap_or(u32::MAX)
}

/// Peephole superinstruction fusion: merges `Step`+`Num`(+`Bin`),
/// `Step`+`Str`, and `Step`+`Load` into single fused ops, then remaps
/// every jump target through the old→new pc table. An op that is the
/// target of any jump is never absorbed as the *second* (or third)
/// element of a fusion, so control transfers always land on an
/// instruction boundary that still exists.
fn peephole(code: Vec<Op>) -> Vec<Op> {
    let mut is_target = vec![false; code.len() + 1];
    for op in &code {
        match op {
            Op::Jump { to }
            | Op::JumpIfFalse { to, .. }
            | Op::AndShort { to, .. }
            | Op::OrShort { to, .. }
            | Op::FlexEnter { to, .. }
            | Op::ForLoop { end: to, .. } => is_target[*to as usize] = true,
            _ => {}
        }
    }
    let mut new_code = Vec::with_capacity(code.len());
    let mut map = vec![0u32; code.len() + 1];
    let mut i = 0;
    while i < code.len() {
        map[i] = new_code.len() as u32;
        let fused = match code[i] {
            Op::Step { n, line } if n <= u16::MAX as u32 => {
                let n = n as u16;
                match code.get(i + 1) {
                    Some(&Op::Num { idx }) if !is_target[i + 1] => match code.get(i + 2) {
                        Some(&Op::Bin { op, line: bin_line })
                            if !is_target[i + 2] && bin_line == line =>
                        {
                            Some((Op::StepNumBin { n, idx, op, line }, 3))
                        }
                        _ => Some((Op::StepNum { n, idx, line }, 2)),
                    },
                    Some(&Op::Str { idx }) if !is_target[i + 1] => {
                        Some((Op::StepStr { n, idx, line }, 2))
                    }
                    Some(&Op::Load { local, global, name, line: load_line })
                        if !is_target[i + 1] && load_line == line =>
                    {
                        Some((Op::StepLoad { n, local, global, name, line }, 2))
                    }
                    _ => None,
                }
            }
            _ => None,
        };
        match fused {
            Some((op, width)) => {
                for k in 1..width {
                    map[i + k] = new_code.len() as u32;
                }
                new_code.push(op);
                i += width;
            }
            None => {
                new_code.push(code[i]);
                i += 1;
            }
        }
    }
    map[code.len()] = new_code.len() as u32;
    for op in &mut new_code {
        match op {
            Op::Jump { to }
            | Op::JumpIfFalse { to, .. }
            | Op::AndShort { to, .. }
            | Op::OrShort { to, .. }
            | Op::FlexEnter { to, .. }
            | Op::ForLoop { end: to, .. } => *to = map[*to as usize],
            _ => {}
        }
    }
    new_code
}

/// A proto is pure when no op can write globals, stdout, or the
/// profile: then a per-node callback can run on any thread against a
/// read-only profile view with no observable difference.
///
/// Function definition and application are allowed as long as every
/// proto reachable through `MakeFunc` is itself pure. That closes the
/// analysis over helper functions a callback defines locally: the only
/// function values a pure frame can ever hold come from its own
/// (transitively pure) `MakeFunc`s — its parameters are node handles,
/// constants are never functions, and no pure builtin returns one — so
/// a blessed `Call` can only ever enter pure code. `FlexEnter` /
/// `FlexCall` stay impure: their builtin-shadowing dispatch reads
/// global definedness at runtime. Nested protos finish compiling
/// before their parent is scanned (compilation recurses into `fn`
/// literals), so `protos[target].pure` is already final here.
fn scan_purity(code: &[Op], protos: &[Proto]) -> bool {
    code.iter().all(|op| match op {
        Op::Load { local, global, .. }
        | Op::StepLoad { local, global, .. }
        | Op::Store { local, global, .. } => *global == NO_SLOT && *local != NO_SLOT,
        Op::Define { global, .. } | Op::ForLoop { global, .. } => *global == NO_SLOT,
        Op::MakeFunc { proto } => protos[*proto as usize].pure,
        Op::FlexEnter { .. } | Op::FlexCall { .. } => false,
        Op::CallBuiltin { id, .. } => id.is_pure(),
        // `Call` included: per the invariant above, any callee is pure.
        _ => true,
    })
}

/// Renders a chunk as stable, human-readable text (golden fixtures).
pub(crate) fn disassemble(chunk: &Chunk) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, proto) in chunk.protos.iter().enumerate() {
        let kind = if i == 0 { " (main)" } else { "" };
        let _ = writeln!(
            out,
            "proto {i}{kind}: arity={} locals={} pure={}",
            proto.arity, proto.n_locals, proto.pure
        );
        if !proto.local_names.is_empty() {
            let names: Vec<&str> = proto
                .local_names
                .iter()
                .map(|&n| chunk.strings[n as usize].as_str())
                .collect();
            let _ = writeln!(out, "  locals: {}", names.join(", "));
        }
        for (pc, op) in proto.code.iter().enumerate() {
            let _ = write!(out, "  {pc:04}  ");
            let slot = |local: u16, global: u16| -> String {
                match (local, global) {
                    (NO_SLOT, NO_SLOT) => "none".to_owned(),
                    (l, NO_SLOT) => format!("local {l}"),
                    (NO_SLOT, g) => format!("global {g}"),
                    (l, g) => format!("local {l} | global {g}"),
                }
            };
            let line = match op {
                Op::Step { line, .. }
                | Op::StepNum { line, .. }
                | Op::StepStr { line, .. }
                | Op::StepLoad { line, .. }
                | Op::StepNumBin { line, .. }
                | Op::Load { line, .. }
                | Op::Store { line, .. }
                | Op::Unary { line, .. }
                | Op::Bin { line, .. }
                | Op::CheckBool { line }
                | Op::AndShort { line, .. }
                | Op::OrShort { line, .. }
                | Op::JumpIfFalse { line, .. }
                | Op::Index { line }
                | Op::StoreIndex { line }
                | Op::Call { line, .. }
                | Op::CallBuiltin { line, .. }
                | Op::FlexCall { line, .. }
                | Op::ForPrep { line }
                | Op::ForLoop { line, .. } => Some(*line),
                _ => None,
            };
            let text = match op {
                Op::Step { n, .. } => format!("step        n={n}"),
                Op::Num { idx } => {
                    format!("num         {}", chunk.numbers[*idx as usize])
                }
                Op::Str { idx } => {
                    format!("str         {:?}", chunk.strings[*idx as usize])
                }
                Op::Bool { value } => format!("bool        {value}"),
                Op::Nil => "nil".to_owned(),
                Op::MakeList { len } => format!("make_list   len={len}"),
                Op::Load { local, global, name, .. } => format!(
                    "load        {} ({})",
                    slot(*local, *global),
                    chunk.strings[*name as usize]
                ),
                Op::Store { local, global, name, .. } => format!(
                    "store       {} ({})",
                    slot(*local, *global),
                    chunk.strings[*name as usize]
                ),
                Op::Define { local, global } => {
                    format!("define      {}", slot(*local, *global))
                }
                Op::Pop => "pop".to_owned(),
                Op::Unary { op, .. } => format!("unary       {op:?}"),
                Op::Bin { op, .. } => format!("bin         {op:?}"),
                Op::CheckBool { .. } => "check_bool".to_owned(),
                Op::AndShort { to, .. } => format!("and_short   -> {to:04}"),
                Op::OrShort { to, .. } => format!("or_short    -> {to:04}"),
                Op::JumpIfFalse { to, .. } => format!("jump_false  -> {to:04}"),
                Op::Index { .. } => "index".to_owned(),
                Op::StoreIndex { .. } => "store_index".to_owned(),
                Op::MakeFunc { proto } => format!("make_func   proto {proto}"),
                Op::Call { argc, .. } => format!("call        argc={argc}"),
                Op::CallBuiltin { id, argc, .. } => {
                    format!("builtin     {} argc={argc}", id.name())
                }
                Op::FlexEnter { local, global, to, id } => format!(
                    "flex_enter  {} {} -> {to:04}",
                    id.name(),
                    slot(*local, *global)
                ),
                Op::FlexCall { argc, .. } => format!("flex_call   argc={argc}"),
                Op::Jump { to } => format!("jump        -> {to:04}"),
                Op::ForPrep { .. } => "for_prep".to_owned(),
                Op::ForLoop { local, global, end, .. } => {
                    format!("for_loop    {} end -> {end:04}", slot(*local, *global))
                }
                Op::IterPop => "iter_pop".to_owned(),
                Op::LoopErr => "loop_err".to_owned(),
                Op::Ret { has_value } => format!("ret         value={has_value}"),
                Op::StepNum { n, idx, .. } => {
                    format!("step.num    n={n} {}", chunk.numbers[*idx as usize])
                }
                Op::StepStr { n, idx, .. } => {
                    format!("step.str    n={n} {:?}", chunk.strings[*idx as usize])
                }
                Op::StepLoad { n, local, global, name, .. } => format!(
                    "step.load   n={n} {} ({})",
                    slot(*local, *global),
                    chunk.strings[*name as usize]
                ),
                Op::StepNumBin { n, idx, op, .. } => format!(
                    "step.numbin n={n} {} {op:?}",
                    chunk.numbers[*idx as usize]
                ),
            };
            match line {
                Some(l) => {
                    let _ = writeln!(out, "{text}  ; line {l}");
                }
                None => {
                    let _ = writeln!(out, "{text}");
                }
            }
        }
    }
    out
}

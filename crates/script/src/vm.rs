//! The EVscript bytecode VM.
//!
//! Executes a [`Chunk`] produced by [`crate::compile`] with a
//! contiguous `Vec<Value>` operand stack, slot-indexed locals and
//! globals (no name lookups at runtime), and threaded call frames:
//! a script-to-script call pushes a [`Frame`] and continues the same
//! dispatch loop, so user functions cost a frame push/pop instead of a
//! recursive interpreter invocation. Depth is bounded by the same
//! limit as the tree-walker.
//!
//! # Semantics contract
//!
//! The VM is the fast engine behind the tree-walker reference: for
//! every program it must produce the identical `stdout`, profile
//! mutations, final step count, and — on failure — the identical
//! `ScriptError` (message and line), including step-limit exhaustion at
//! the same program point.
//! The differential suite in `tests/vm_differential.rs` pins this.
//!
//! # Parallel node callbacks
//!
//! `map_nodes(f)` and the compute phase of `derive(name, f)` fan out
//! over `ev-par` when `f` compiled to a *pure* proto (no global
//! reads/writes, no impure builtins, no user calls — see
//! `compile::scan_purity`) and the host exposes a shared profile view.
//! Workers run per-chunk VMs against a read-only binding; results
//! cross threads as [`SendVal`] (structurally equivalent to the
//! snapshot the inline path takes) and are concatenated in node order,
//! so output is bit-identical at any `--threads`. Any worker anomaly —
//! an error, a budget overrun, a result too deep to transfer — falls
//! back to a full inline rerun, which is authoritative: a pure
//! callback's parallel attempt has no observable side effects to leak.

use crate::ast::{BinOp, UnOp};
use crate::compile::{Builtin, Chunk, Op, MAX_CALL_DEPTH, NO_SLOT};
use crate::host::Binding;
use crate::interp::{value_snapshot, Value, VmFunc, SNAPSHOT_DEPTH_LIMIT};
use crate::ScriptError;
use ev_par::ExecPolicy;
use std::rc::Rc;

/// Smallest node range worth a chunk of its own: each node runs a full
/// callback (dozens of ops), so chunks can be fine-grained.
const PAR_MIN_CHUNK: usize = 16;

/// The bytecode interpreter for one compiled chunk.
pub(crate) struct Vm<'h, 'c> {
    host: Binding<'h>,
    chunk: &'c Chunk,
    /// Chunk string constants pre-wrapped for cheap `Value::Str` pushes
    /// (one `Rc` bump instead of a `String` allocation per push).
    strs: Vec<Rc<String>>,
    globals: Vec<Option<Value>>,
    stack: Vec<Value>,
    /// Locals of all active frames, contiguous; each frame owns
    /// `[base .. base + n_locals)`. One arena beats a `Vec` per call —
    /// frame entry is a `resize`/`truncate` pair, no allocation once
    /// the high-water mark is reached.
    locals: Vec<Option<Value>>,
    depth: usize,
    steps: u64,
    step_limit: u64,
    pub(crate) stdout: String,
    policy: ExecPolicy,
    /// Ops dispatched; flushed to the `script.vm_ops` counter by
    /// [`Vm::run`] (worker tallies fold into the launching VM).
    ops: u64,
    /// Recycled argument buffers for builtin calls (popped on entry,
    /// cleared and pushed back on exit), so a builtin call allocates
    /// nothing once the pool covers the nesting high-water mark.
    scratch: Vec<Vec<Value>>,
    /// Suspended caller frames of in-loop script calls. Lives on the
    /// `Vm` (not the dispatch loop) so re-entrant `execute` calls from
    /// host callbacks share one allocation.
    frames: Vec<Frame>,
}

/// A suspended caller, pushed by `Op::Call` (and `FlexCall`'s value
/// path) and popped by `Op::Ret`.
struct Frame {
    /// Caller's proto (its code is re-resolved from the chunk on
    /// return).
    proto: u16,
    /// Caller pc to resume at (the op after the call).
    ret_pc: usize,
    /// Caller's locals base in the arena.
    base: usize,
    /// Caller's heights of the shared `for`-iterator and flex-dispatch
    /// stacks; the callee unwinds to these on return (a `return`
    /// inside a loop leaves its own iterations behind).
    iters_len: usize,
    flex_len: usize,
    /// Caller's `call_line` (where flow escaping *it* reports).
    call_line: u32,
}

impl<'h, 'c> Vm<'h, 'c> {
    pub(crate) fn new(
        host: Binding<'h>,
        chunk: &'c Chunk,
        step_limit: u64,
        policy: ExecPolicy,
    ) -> Vm<'h, 'c> {
        Vm {
            host,
            strs: chunk.strings.iter().map(|s| Rc::new(s.clone())).collect(),
            globals: vec![None; chunk.global_names.len()],
            chunk,
            stack: Vec::with_capacity(32),
            locals: Vec::with_capacity(64),
            depth: 0,
            steps: 0,
            step_limit,
            stdout: String::new(),
            policy,
            ops: 0,
            scratch: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Steps charged (`step_limit + 1` exactly when the run died of
    /// budget exhaustion) — identical to the walker's accounting.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs proto 0 (the top level) to completion.
    pub(crate) fn run(&mut self) -> Result<(), ScriptError> {
        self.locals.resize(self.chunk.protos[0].n_locals, None);
        let result = self.execute(0, 0, 0);
        if self.ops > 0 {
            ev_trace::counter("script.vm_ops").add(self.ops);
            self.ops = 0;
        }
        result.map(|_| ())
    }

    /// Charges `n` walker ticks; on exhaustion the count lands exactly
    /// on `limit + 1`, where the walker's one-at-a-time `tick` stops.
    fn charge(&mut self, n: u32, line: u32) -> Result<(), ScriptError> {
        self.steps += u64::from(n);
        if self.steps > self.step_limit {
            self.steps = self.step_limit + 1;
            return Err(step_limit_err(line));
        }
        Ok(())
    }

    fn pop(&mut self) -> Value {
        self.stack.pop().expect("compiler balances the stack")
    }

    /// Runs `proto` to completion (including any script calls it
    /// makes, which thread through the same loop as in-loop frames).
    /// On error the frame and depth bookkeeping is restored to the
    /// entry state, so an erroring callback leaves the VM re-enterable
    /// (the caller truncates the locals arena to its own base).
    fn execute(
        &mut self,
        proto: u16,
        base: usize,
        call_line: u32,
    ) -> Result<Value, ScriptError> {
        let entry_depth = self.depth;
        let entry_frames = self.frames.len();
        let result = self.execute_frames(proto, base, call_line);
        if result.is_err() {
            self.depth = entry_depth;
            self.frames.truncate(entry_frames);
        }
        result
    }

    /// The dispatch loop. Loop state (`cur` proto, `code`, `pc`,
    /// `base`, `call_line`) switches in place when `Op::Call` pushes a
    /// [`Frame`] or `Op::Ret` pops one; the loop returns when the
    /// frame it was entered with returns. `call_line` is the line of
    /// the call expression that entered the current frame (0 at top
    /// level) — where `break`/`continue` escaping the frame report
    /// their error, as in the walker's flow propagation.
    fn execute_frames(
        &mut self,
        proto: u16,
        base: usize,
        call_line: u32,
    ) -> Result<Value, ScriptError> {
        let chunk = self.chunk;
        let mut cur = proto;
        let mut code = chunk.protos[cur as usize].code.as_slice();
        let mut pc = 0usize;
        let mut base = base;
        let mut call_line = call_line;
        let frames_start = self.frames.len();
        // Active `for` iterations and flex-call dispatch flags, shared
        // by all in-loop frames (each [`Frame`] records the heights to
        // unwind to); both are statically balanced by the compiler.
        let mut iters: Vec<(Vec<Value>, usize)> = Vec::new();
        let mut flex: Vec<Option<Builtin>> = Vec::new();
        // Enters `target`'s frame: moves the args at `stack[start..]`
        // into the callee's local slots (declaration order, so
        // duplicate parameter names make the last one win, like the
        // walker's HashMap inserts), drops the callee value, suspends
        // the caller, and redirects the loop.
        macro_rules! enter_frame {
            ($argc:expr, $line:expr) => {{
                let argc = $argc as usize;
                let line = $line;
                let start = self.stack.len() - argc;
                let target =
                    callee_proto(chunk, &self.stack[start - 1], argc, self.depth, line)?;
                let p = &chunk.protos[target as usize];
                let nbase = self.locals.len();
                self.locals.resize(nbase + p.n_locals, None);
                for (i, &slot) in p.param_slots.iter().enumerate() {
                    self.locals[nbase + slot as usize] =
                        Some(std::mem::replace(&mut self.stack[start + i], Value::Nil));
                }
                self.stack.truncate(start - 1);
                self.frames.push(Frame {
                    proto: cur,
                    ret_pc: pc,
                    base,
                    iters_len: iters.len(),
                    flex_len: flex.len(),
                    call_line,
                });
                self.depth += 1;
                cur = target;
                code = chunk.protos[cur as usize].code.as_slice();
                pc = 0;
                base = nbase;
                call_line = line;
            }};
        }
        loop {
            let op = code[pc];
            pc += 1;
            self.ops += 1;
            match op {
                Op::Step { n, line } => self.charge(n, line)?,
                Op::StepNum { n, idx, line } => {
                    self.charge(n.into(), line)?;
                    self.stack.push(Value::Num(chunk.numbers[idx as usize]));
                }
                Op::StepStr { n, idx, line } => {
                    self.charge(n.into(), line)?;
                    self.stack.push(Value::Str(self.strs[idx as usize].clone()));
                }
                Op::StepLoad { n, local, global, name, line } => {
                    self.charge(n.into(), line)?;
                    let value = if local != NO_SLOT && self.locals[base + local as usize].is_some()
                    {
                        self.locals[base + local as usize].clone()
                    } else if global != NO_SLOT {
                        self.globals[global as usize].clone()
                    } else {
                        None
                    };
                    match value {
                        Some(v) => self.stack.push(v),
                        None => return Err(undefined_var(chunk, name, line)),
                    }
                }
                Op::StepNumBin { n, idx, op, line } => {
                    self.charge(n.into(), line)?;
                    let b = chunk.numbers[idx as usize];
                    // In-place numeric fast path on the stack top;
                    // anything else (non-numeric lhs, division by
                    // zero) takes the shared slow path for identical
                    // error text.
                    let fast = match self.stack.last() {
                        Some(&Value::Num(a)) => match op {
                            BinOp::Add => Some(Value::Num(a + b)),
                            BinOp::Sub => Some(Value::Num(a - b)),
                            BinOp::Mul => Some(Value::Num(a * b)),
                            BinOp::Div if b != 0.0 => Some(Value::Num(a / b)),
                            BinOp::Rem if b != 0.0 => Some(Value::Num(a % b)),
                            BinOp::Lt => Some(Value::Bool(a < b)),
                            BinOp::LtEq => Some(Value::Bool(a <= b)),
                            BinOp::Gt => Some(Value::Bool(a > b)),
                            BinOp::GtEq => Some(Value::Bool(a >= b)),
                            BinOp::Eq => Some(Value::Bool(a == b)),
                            BinOp::NotEq => Some(Value::Bool(a != b)),
                            _ => None,
                        },
                        _ => None,
                    };
                    match fast {
                        Some(v) => {
                            *self.stack.last_mut().expect("compiler balances the stack") = v;
                        }
                        None => {
                            let left = self.pop();
                            let result = binary_values(op, left, Value::Num(b), line)?;
                            self.stack.push(result);
                        }
                    }
                }
                Op::Num { idx } => self.stack.push(Value::Num(chunk.numbers[idx as usize])),
                Op::Str { idx } => {
                    self.stack.push(Value::Str(self.strs[idx as usize].clone()));
                }
                Op::Bool { value } => self.stack.push(Value::Bool(value)),
                Op::Nil => self.stack.push(Value::Nil),
                Op::MakeList { len } => self.op_make_list(len),
                Op::Load { local, global, name, line } => {
                    let value = if local != NO_SLOT && self.locals[base + local as usize].is_some()
                    {
                        self.locals[base + local as usize].clone()
                    } else if global != NO_SLOT {
                        self.globals[global as usize].clone()
                    } else {
                        None
                    };
                    match value {
                        Some(v) => self.stack.push(v),
                        None => return Err(undefined_var(chunk, name, line)),
                    }
                }
                Op::Store { local, global, name, line } => {
                    let value = self.pop();
                    if local != NO_SLOT && self.locals[base + local as usize].is_some() {
                        self.locals[base + local as usize] = Some(value);
                    } else if global != NO_SLOT && self.globals[global as usize].is_some() {
                        self.globals[global as usize] = Some(value);
                    } else {
                        return Err(undefined_assign(chunk, name, line));
                    }
                }
                Op::Define { local, global } => {
                    let value = self.pop();
                    if local != NO_SLOT {
                        self.locals[base + local as usize] = Some(value);
                    } else {
                        self.globals[global as usize] = Some(value);
                    }
                }
                Op::Pop => {
                    self.pop();
                }
                Op::Unary { op, line } => {
                    let value = self.pop();
                    let result = match (op, value) {
                        (UnOp::Neg, Value::Num(n)) => Value::Num(-n),
                        (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                        (op, value) => return Err(bad_unary(op, &value, line)),
                    };
                    self.stack.push(result);
                }
                Op::Bin { op, line } => {
                    let right = self.pop();
                    let left = self.pop();
                    let result = binary_values(op, left, right, line)?;
                    self.stack.push(result);
                }
                Op::CheckBool { line } => match self.stack.last() {
                    Some(Value::Bool(_)) => {}
                    Some(other) => return Err(not_bool(other, line)),
                    None => unreachable!("compiler balances the stack"),
                },
                Op::AndShort { to, line } => match self.pop() {
                    Value::Bool(true) => {}
                    Value::Bool(false) => {
                        self.stack.push(Value::Bool(false));
                        pc = to as usize;
                    }
                    other => return Err(not_bool(&other, line)),
                },
                Op::OrShort { to, line } => match self.pop() {
                    Value::Bool(false) => {}
                    Value::Bool(true) => {
                        self.stack.push(Value::Bool(true));
                        pc = to as usize;
                    }
                    other => return Err(not_bool(&other, line)),
                },
                Op::JumpIfFalse { to, line } => match self.pop() {
                    Value::Bool(true) => {}
                    Value::Bool(false) => pc = to as usize,
                    other => return Err(not_bool(&other, line)),
                },
                Op::Index { line } => self.op_index(line)?,
                Op::StoreIndex { line } => self.op_store_index(line)?,
                Op::MakeFunc { proto } => self.op_make_func(proto),
                Op::Call { argc, line } => enter_frame!(argc, line),
                Op::CallBuiltin { id, argc, line } => self.op_call_builtin(id, argc, line)?,
                Op::FlexEnter { local, global, to, id } => {
                    let defined = (local != NO_SLOT
                        && self.locals[base + local as usize].is_some())
                        || (global != NO_SLOT && self.globals[global as usize].is_some());
                    if defined {
                        // Fall through: evaluate the shadowing variable
                        // as the callee, dispatch as a value call.
                        flex.push(None);
                    } else {
                        flex.push(Some(id));
                        pc = to as usize;
                    }
                }
                Op::FlexCall { argc, line } => {
                    // The builtin path drained no callee, so the two
                    // paths are exactly the two plain call ops.
                    match flex.pop().expect("compiler balances flex flags") {
                        Some(id) => self.op_call_builtin(id, argc, line)?,
                        None => enter_frame!(argc, line),
                    }
                }
                Op::Jump { to } => pc = to as usize,
                Op::ForPrep { line } => self.op_for_prep(&mut iters, line)?,
                Op::ForLoop { local, global, end, line } => {
                    let next = {
                        let (items, idx) = iters.last_mut().expect("ForPrep precedes");
                        if *idx < items.len() {
                            let v = items[*idx].clone();
                            *idx += 1;
                            Some(v)
                        } else {
                            None
                        }
                    };
                    match next {
                        Some(item) => {
                            // The walker's per-iteration tick, charged
                            // before the loop variable is defined.
                            self.charge(1, line)?;
                            if local != NO_SLOT {
                                self.locals[base + local as usize] = Some(item);
                            } else {
                                self.globals[global as usize] = Some(item);
                            }
                        }
                        None => {
                            iters.pop();
                            pc = end as usize;
                        }
                    }
                }
                Op::IterPop => {
                    iters.pop();
                }
                Op::LoopErr => {
                    return Err(ScriptError::new(
                        "break/continue outside a loop",
                        call_line as usize,
                    ))
                }
                Op::Ret { has_value } => {
                    let value = if has_value { self.pop() } else { Value::Nil };
                    if self.frames.len() == frames_start {
                        return Ok(value);
                    }
                    let f = self.frames.pop().expect("frame present");
                    self.locals.truncate(base);
                    self.depth -= 1;
                    iters.truncate(f.iters_len);
                    flex.truncate(f.flex_len);
                    cur = f.proto;
                    code = chunk.protos[cur as usize].code.as_slice();
                    pc = f.ret_pc;
                    base = f.base;
                    call_line = f.call_line;
                    self.stack.push(value);
                }
            }
        }
    }

    // ---- outlined dispatch arms -------------------------------------
    //
    // The heavy ops live in `#[inline(never)]` methods: inlining them
    // into `execute` balloons the loop body until LLVM spills `pc`, the
    // code pointer, and the stack length to memory on *every* dispatch
    // (measured: the spills, not the arm work, dominate). Out of line,
    // the dispatch loop's register state survives across the hot ops.

    #[inline(never)]
    fn op_make_list(&mut self, len: u16) {
        let start = self.stack.len() - len as usize;
        let items: Vec<Value> = self.stack.drain(start..).collect();
        self.stack.push(Value::list(items));
    }

    #[inline(never)]
    fn op_index(&mut self, line: u32) -> Result<(), ScriptError> {
        let index = self.pop();
        let list = self.pop();
        match list {
            Value::List(items) => {
                let idx = index_of(&index, items.borrow().len(), line)?;
                let v = items.borrow()[idx].clone();
                self.stack.push(v);
                Ok(())
            }
            other => Err(ScriptError::new(
                format!("cannot index a {}", other.type_name()),
                line as usize,
            )),
        }
    }

    #[inline(never)]
    fn op_store_index(&mut self, line: u32) -> Result<(), ScriptError> {
        let index = self.pop();
        let list = self.pop();
        let value = self.pop();
        let Value::List(items) = list else {
            return Err(ScriptError::new(
                format!("cannot index a {}", list.type_name()),
                line as usize,
            ));
        };
        let idx = index_of(&index, items.borrow().len(), line)?;
        items.borrow_mut()[idx] = value;
        Ok(())
    }

    #[inline(never)]
    fn op_make_func(&mut self, proto: u16) {
        // Fresh Rc per evaluation: identity semantics match the
        // walker's fresh Rc<Function> per fn literal.
        let arity = self.chunk.protos[proto as usize].arity;
        self.stack.push(Value::VmFunc(Rc::new(VmFunc { proto, arity })));
    }

    /// `Op::CallBuiltin` (and the builtin path of `FlexCall`): args
    /// move into a recycled scratch buffer, so no allocation per call.
    #[inline(never)]
    fn op_call_builtin(&mut self, id: Builtin, argc: u16, line: u32) -> Result<(), ScriptError> {
        let start = self.stack.len() - argc as usize;
        let mut args = self.scratch.pop().unwrap_or_default();
        args.extend(self.stack.drain(start..));
        let result = self.call_builtin(id, &args, line);
        args.clear();
        self.scratch.push(args);
        self.stack.push(result?);
        Ok(())
    }

    #[inline(never)]
    fn op_for_prep(
        &mut self,
        iters: &mut Vec<(Vec<Value>, usize)>,
        line: u32,
    ) -> Result<(), ScriptError> {
        let value = self.pop();
        let Value::List(items) = value else {
            return Err(ScriptError::new(
                format!("for expects a list, found {}", value.type_name()),
                line as usize,
            ));
        };
        // Snapshot, as in the walker: mutating the list inside the
        // loop does not change the iteration.
        let snapshot: Vec<Value> = items.borrow().clone();
        iters.push((snapshot, 0));
        Ok(())
    }

    /// Calls a function value with exactly one argument — the per-node
    /// callback path (`visit`, `derive`, `map_nodes`), hot enough that
    /// skipping an args `Vec` matters. Mirrors the walker's
    /// `call_value`: arity check before depth check, depth capped at
    /// [`MAX_CALL_DEPTH`] active frames.
    fn call_value_1(
        &mut self,
        callee: &Value,
        arg: Value,
        line: u32,
    ) -> Result<Value, ScriptError> {
        let target = callee_proto(self.chunk, callee, 1, self.depth, line)?;
        let chunk = self.chunk;
        let p = &chunk.protos[target as usize];
        let base = self.locals.len();
        self.locals.resize(base + p.n_locals, None);
        self.locals[base + p.param_slots[0] as usize] = Some(arg);
        self.depth += 1;
        let result = self.execute(target, base, line);
        self.depth -= 1;
        self.locals.truncate(base);
        result
    }

    // ---- builtins (mirroring interp::call_builtin arm for arm) ------

    fn arg_num(&self, args: &[Value], i: usize, line: u32) -> Result<f64, ScriptError> {
        match args.get(i) {
            Some(Value::Num(n)) => Ok(*n),
            Some(other) => Err(ScriptError::new(
                format!("argument {} must be a number, found {}", i + 1, other.type_name()),
                line as usize,
            )),
            None => Err(ScriptError::new(
                format!("missing argument {}", i + 1),
                line as usize,
            )),
        }
    }

    fn arg_str(&self, args: &[Value], i: usize, line: u32) -> Result<Rc<String>, ScriptError> {
        match args.get(i) {
            Some(Value::Str(s)) => Ok(s.clone()),
            Some(other) => Err(ScriptError::new(
                format!("argument {} must be a string, found {}", i + 1, other.type_name()),
                line as usize,
            )),
            None => Err(ScriptError::new(
                format!("missing argument {}", i + 1),
                line as usize,
            )),
        }
    }

    fn arg_node(&self, args: &[Value], i: usize, line: u32) -> Result<usize, ScriptError> {
        let n = self.arg_num(args, i, line)?;
        let count = self.host.node_count();
        if n < 0.0 || n as usize >= count || n != n.trunc() {
            return Err(ScriptError::new(
                format!("node handle {n} out of range (0..{count})"),
                line as usize,
            ));
        }
        Ok(n as usize)
    }

    fn host_err(msg: String, line: u32) -> ScriptError {
        ScriptError::new(msg, line as usize)
    }

    fn call_builtin(
        &mut self,
        id: Builtin,
        args: &[Value],
        line: u32,
    ) -> Result<Value, ScriptError> {
        match id {
            Builtin::Print => {
                let rendered: Vec<String> = args.iter().map(Value::to_string).collect();
                self.stdout.push_str(&rendered.join(" "));
                self.stdout.push('\n');
                Ok(Value::Nil)
            }
            Builtin::Len => match args.first() {
                Some(Value::List(items)) => Ok(Value::Num(items.borrow().len() as f64)),
                Some(Value::Str(s)) => Ok(Value::Num(s.chars().count() as f64)),
                other => Err(ScriptError::new(
                    format!(
                        "len expects a list or string, found {}",
                        other.map_or("nothing", |v| v.type_name())
                    ),
                    line as usize,
                )),
            },
            Builtin::Push => {
                let Some(Value::List(items)) = args.first() else {
                    return Err(ScriptError::new("push expects a list", line as usize));
                };
                let value = args.get(1).cloned().unwrap_or(Value::Nil);
                items.borrow_mut().push(value);
                Ok(Value::Nil)
            }
            Builtin::Str => Ok(Value::str(
                args.first().map(Value::to_string).unwrap_or_default(),
            )),
            Builtin::Abs => Ok(Value::Num(self.arg_num(args, 0, line)?.abs())),
            Builtin::Floor => Ok(Value::Num(self.arg_num(args, 0, line)?.floor())),
            Builtin::Sqrt => Ok(Value::Num(self.arg_num(args, 0, line)?.sqrt())),
            Builtin::Min => Ok(Value::Num(
                self.arg_num(args, 0, line)?.min(self.arg_num(args, 1, line)?),
            )),
            Builtin::Max => Ok(Value::Num(
                self.arg_num(args, 0, line)?.max(self.arg_num(args, 1, line)?),
            )),
            Builtin::Range => {
                let (start, end) = if args.len() >= 2 {
                    (self.arg_num(args, 0, line)?, self.arg_num(args, 1, line)?)
                } else {
                    (0.0, self.arg_num(args, 0, line)?)
                };
                if end - start > 10_000_000.0 {
                    return Err(ScriptError::new("range too large", line as usize));
                }
                let items: Vec<Value> =
                    ((start as i64)..(end as i64)).map(|i| Value::Num(i as f64)).collect();
                Ok(Value::list(items))
            }
            Builtin::NodeCount => Ok(Value::Num(self.host.node_count() as f64)),
            Builtin::Nodes => {
                let items: Vec<Value> =
                    (0..self.host.node_count()).map(|i| Value::Num(i as f64)).collect();
                Ok(Value::list(items))
            }
            Builtin::Name => {
                let node = self.arg_node(args, 0, line)?;
                Ok(Value::str(self.host.node_name(node).unwrap_or_default()))
            }
            Builtin::File => {
                let node = self.arg_node(args, 0, line)?;
                Ok(Value::str(self.host.node_file(node).unwrap_or_default()))
            }
            Builtin::Line => {
                let node = self.arg_node(args, 0, line)?;
                Ok(Value::Num(f64::from(self.host.node_line(node).unwrap_or(0))))
            }
            Builtin::Module => {
                let node = self.arg_node(args, 0, line)?;
                Ok(Value::str(self.host.node_module(node).unwrap_or_default()))
            }
            Builtin::Parent => {
                let node = self.arg_node(args, 0, line)?;
                Ok(match self.host.node_parent(node) {
                    Some(p) => Value::Num(p as f64),
                    None => Value::Nil,
                })
            }
            Builtin::Children => {
                let node = self.arg_node(args, 0, line)?;
                let items: Vec<Value> = self
                    .host
                    .node_children(node)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|c| Value::Num(c as f64))
                    .collect();
                Ok(Value::list(items))
            }
            Builtin::Value => {
                let node = self.arg_node(args, 0, line)?;
                let metric = self.arg_str(args, 1, line)?;
                self.host
                    .get_value(node, &metric)
                    .map(Value::Num)
                    .map_err(|e| Self::host_err(e, line))
            }
            Builtin::SetValue => {
                let node = self.arg_node(args, 0, line)?;
                let metric = self.arg_str(args, 1, line)?;
                let value = self.arg_num(args, 2, line)?;
                self.host
                    .set_value(node, &metric, value)
                    .map(|()| Value::Nil)
                    .map_err(|e| Self::host_err(e, line))
            }
            Builtin::AddMetric => {
                let metric = self.arg_str(args, 0, line)?;
                self.host
                    .add_metric(&metric)
                    .map(|()| Value::Nil)
                    .map_err(|e| Self::host_err(e, line))
            }
            Builtin::Total => {
                let metric = self.arg_str(args, 0, line)?;
                self.host
                    .total(&metric)
                    .map(Value::Num)
                    .map_err(|e| Self::host_err(e, line))
            }
            Builtin::Metrics => Ok(Value::list(
                self.host.metric_names().into_iter().map(Value::str).collect(),
            )),
            Builtin::Visit => {
                // Always sequential: visit callbacks are the mutation
                // workhorse (set_value at every node).
                let Some(callback @ Value::VmFunc(_)) = args.first().cloned() else {
                    return Err(ScriptError::new("visit expects a function", line as usize));
                };
                for node in 0..self.host.node_count() {
                    self.call_value_1(&callback, Value::Num(node as f64), line)?;
                }
                Ok(Value::Nil)
            }
            Builtin::Derive => {
                let metric = self.arg_str(args, 0, line)?;
                let Some(callback @ Value::VmFunc(_)) = args.get(1).cloned() else {
                    return Err(ScriptError::new("derive expects a function", line as usize));
                };
                self.host
                    .add_metric(&metric)
                    .map_err(|e| Self::host_err(e, line))?;
                let count = self.host.node_count();
                let derived = self.run_nodes(&callback, count, line, false)?;
                for (node, result) in derived.into_iter().enumerate() {
                    if let Value::Num(v) = result {
                        if v != 0.0 {
                            self.host
                                .set_value(node, &metric, v)
                                .map_err(|e| Self::host_err(e, line))?;
                        }
                    }
                }
                Ok(Value::Nil)
            }
            Builtin::MapNodes => {
                let Some(callback @ Value::VmFunc(_)) = args.first().cloned() else {
                    return Err(ScriptError::new(
                        "map_nodes expects a function",
                        line as usize,
                    ));
                };
                let count = self.host.node_count();
                let items = self.run_nodes(&callback, count, line, true)?;
                Ok(Value::list(items))
            }
        }
    }

    /// Runs `callback` at every node (pre-order handles `0..count`),
    /// collecting the results — in parallel when eligible, inline
    /// otherwise. `snapshot` is `map_nodes`' structural-copy semantics;
    /// the parallel transfer is snapshot-equivalent either way.
    fn run_nodes(
        &mut self,
        callback: &Value,
        count: usize,
        line: u32,
        snapshot: bool,
    ) -> Result<Vec<Value>, ScriptError> {
        if let Some(results) = self.try_parallel(callback, count) {
            return Ok(results);
        }
        let mut out = Vec::with_capacity(count);
        for node in 0..count {
            let v = self.call_value_1(callback, Value::Num(node as f64), line)?;
            out.push(if snapshot {
                value_snapshot(&v, 0).map_err(|()| {
                    ScriptError::new("map_nodes result nesting too deep", line as usize)
                })?
            } else {
                v
            });
        }
        Ok(out)
    }

    /// Attempts the parallel fan-out; `None` means "run inline" —
    /// either ineligible up front, or the attempt hit an anomaly and
    /// the inline rerun is the authoritative outcome.
    fn try_parallel(&mut self, callback: &Value, count: usize) -> Option<Vec<Value>> {
        let Value::VmFunc(func) = callback else { return None };
        if self.policy.is_sequential() || count < 2 || self.depth >= MAX_CALL_DEPTH {
            return None;
        }
        let chunk = self.chunk;
        let proto = &chunk.protos[func.proto as usize];
        if !proto.pure || proto.arity != 1 {
            return None;
        }
        // `steps <= limit` always holds here (a charge past the limit
        // would have errored out), so the remaining budget is exact.
        let base = self.steps;
        let budget = self.step_limit - base;
        let depth = self.depth;
        let policy = self.policy;
        let proto_idx = func.proto;
        let (results, total_steps, total_ops) = {
            let profile = self.host.shared()?;
            parallel_nodes(profile, chunk, proto_idx, count, budget, depth, policy)?
        };
        if total_steps > budget {
            // In aggregate the nodes exhaust the budget: the inline
            // rerun reproduces the walker's exact error point.
            return None;
        }
        self.steps = base + total_steps;
        self.ops += total_ops;
        ev_trace::counter("script.par_visits").add(count as u64);
        Some(results.into_iter().map(from_send).collect())
    }
}

// Error constructors for the hot dispatch arms, outlined so the
// `format!` machinery stays out of the dispatch loop's instruction
// footprint (it measurably widens the loop body otherwise).
#[cold]
#[inline(never)]
fn step_limit_err(line: u32) -> ScriptError {
    ScriptError::new("step limit exceeded", line as usize)
}

#[cold]
#[inline(never)]
fn undefined_var(chunk: &Chunk, name: u16, line: u32) -> ScriptError {
    ScriptError::new(
        format!("undefined variable {:?}", chunk.strings[name as usize]),
        line as usize,
    )
}

#[cold]
#[inline(never)]
fn undefined_assign(chunk: &Chunk, name: u16, line: u32) -> ScriptError {
    ScriptError::new(
        format!("assignment to undefined variable {:?}", chunk.strings[name as usize]),
        line as usize,
    )
}

#[cold]
#[inline(never)]
fn not_bool(found: &Value, line: u32) -> ScriptError {
    ScriptError::new(
        format!("condition must be a bool, found {}", found.type_name()),
        line as usize,
    )
}

#[cold]
#[inline(never)]
fn bad_unary(op: UnOp, value: &Value, line: u32) -> ScriptError {
    ScriptError::new(
        format!("cannot apply {op:?} to {}", value.type_name()),
        line as usize,
    )
}

/// Validates a call target, mirroring the walker's check order:
/// non-callable, then arity, then depth. Returns the proto index.
fn callee_proto(
    chunk: &Chunk,
    callee: &Value,
    argc: usize,
    depth: usize,
    line: u32,
) -> Result<u16, ScriptError> {
    let Value::VmFunc(func) = callee else {
        return Err(ScriptError::new(
            format!("cannot call a {}", callee.type_name()),
            line as usize,
        ));
    };
    let proto = &chunk.protos[func.proto as usize];
    if argc != proto.arity {
        return Err(ScriptError::new(
            format!("function expects {} arguments, got {argc}", proto.arity),
            line as usize,
        ));
    }
    if depth >= MAX_CALL_DEPTH {
        return Err(ScriptError::new("call stack too deep", line as usize));
    }
    Ok(func.proto)
}

/// Non-short-circuit binary ops on popped values — the walker's
/// `binary` after both operands are evaluated, verbatim.
fn binary_values(op: BinOp, left: Value, right: Value, line: u32) -> Result<Value, ScriptError> {
    // Numbers first: the overwhelmingly common case, and exact — the
    // walker's `equals` on two numbers is plain f64 equality, and every
    // other op below agrees arm for arm.
    if let (Value::Num(a), Value::Num(b)) = (&left, &right) {
        let (a, b) = (*a, *b);
        let value = match op {
            BinOp::Add => Value::Num(a + b),
            BinOp::Sub => Value::Num(a - b),
            BinOp::Mul => Value::Num(a * b),
            BinOp::Div => {
                if b == 0.0 {
                    return Err(ScriptError::new("division by zero", line as usize));
                }
                Value::Num(a / b)
            }
            BinOp::Rem => {
                if b == 0.0 {
                    return Err(ScriptError::new("division by zero", line as usize));
                }
                Value::Num(a % b)
            }
            BinOp::Lt => Value::Bool(a < b),
            BinOp::LtEq => Value::Bool(a <= b),
            BinOp::Gt => Value::Bool(a > b),
            BinOp::GtEq => Value::Bool(a >= b),
            BinOp::Eq => Value::Bool(a == b),
            BinOp::NotEq => Value::Bool(a != b),
            BinOp::And | BinOp::Or => unreachable!("short-circuit ops compile to jumps"),
        };
        return Ok(value);
    }
    match op {
        BinOp::Eq => return Ok(Value::Bool(left.equals(&right))),
        BinOp::NotEq => return Ok(Value::Bool(!left.equals(&right))),
        _ => {}
    }
    if op == BinOp::Add {
        if let (Value::Str(a), Value::Str(b)) = (&left, &right) {
            return Ok(Value::str(format!("{a}{b}")));
        }
    }
    if let (Value::Str(a), Value::Str(b)) = (&left, &right) {
        let result = match op {
            BinOp::Lt => a < b,
            BinOp::LtEq => a <= b,
            BinOp::Gt => a > b,
            BinOp::GtEq => a >= b,
            _ => {
                return Err(ScriptError::new(
                    format!("cannot apply {op:?} to strings"),
                    line as usize,
                ))
            }
        };
        return Ok(Value::Bool(result));
    }
    let (Value::Num(a), Value::Num(b)) = (&left, &right) else {
        return Err(ScriptError::new(
            format!(
                "cannot apply {op:?} to {} and {}",
                left.type_name(),
                right.type_name()
            ),
            line as usize,
        ));
    };
    let (a, b) = (*a, *b);
    let value = match op {
        BinOp::Add => Value::Num(a + b),
        BinOp::Sub => Value::Num(a - b),
        BinOp::Mul => Value::Num(a * b),
        BinOp::Div => {
            if b == 0.0 {
                return Err(ScriptError::new("division by zero", line as usize));
            }
            Value::Num(a / b)
        }
        BinOp::Rem => {
            if b == 0.0 {
                return Err(ScriptError::new("division by zero", line as usize));
            }
            Value::Num(a % b)
        }
        BinOp::Lt => Value::Bool(a < b),
        BinOp::LtEq => Value::Bool(a <= b),
        BinOp::Gt => Value::Bool(a > b),
        BinOp::GtEq => Value::Bool(a >= b),
        BinOp::Eq | BinOp::NotEq | BinOp::And | BinOp::Or => unreachable!(),
    };
    Ok(value)
}

/// The walker's list-index validation, verbatim.
fn index_of(value: &Value, len: usize, line: u32) -> Result<usize, ScriptError> {
    let Value::Num(n) = value else {
        return Err(ScriptError::new(
            format!("index must be a number, found {}", value.type_name()),
            line as usize,
        ));
    };
    let idx = *n as i64;
    if idx < 0 || idx as usize >= len || *n != n.trunc() {
        return Err(ScriptError::new(
            format!("index {n} out of bounds for list of {len}"),
            line as usize,
        ));
    }
    Ok(idx as usize)
}

// ---- parallel fan-out ----------------------------------------------

/// A `Value` flattened for cross-thread transfer (`Value` holds `Rc`s
/// and is not `Send`). `to_send` + `from_send` is structurally
/// identical to `value_snapshot`: all aliasing broken, same depth cap.
enum SendVal {
    Num(f64),
    Str(String),
    Bool(bool),
    Nil,
    List(Vec<SendVal>),
}

fn to_send(value: &Value, depth: usize) -> Result<SendVal, ()> {
    if depth > SNAPSHOT_DEPTH_LIMIT {
        return Err(());
    }
    Ok(match value {
        Value::Num(n) => SendVal::Num(*n),
        Value::Str(s) => SendVal::Str(s.as_ref().clone()),
        Value::Bool(b) => SendVal::Bool(*b),
        Value::Nil => SendVal::Nil,
        Value::List(items) => SendVal::List(
            items
                .borrow()
                .iter()
                .map(|item| to_send(item, depth + 1))
                .collect::<Result<Vec<SendVal>, ()>>()?,
        ),
        // A pure callback may build function values (local helpers),
        // but returning one across threads would need to rebind proto
        // identity; route that rare case through the inline fallback.
        Value::Func(_) | Value::VmFunc(_) => return Err(()),
    })
}

fn from_send(value: SendVal) -> Value {
    match value {
        SendVal::Num(n) => Value::Num(n),
        SendVal::Str(s) => Value::str(s),
        SendVal::Bool(b) => Value::Bool(b),
        SendVal::Nil => Value::Nil,
        SendVal::List(items) => Value::list(items.into_iter().map(from_send).collect()),
    }
}

/// One worker chunk's outcome: results in node order, steps charged,
/// ops dispatched — or `None` if anything went wrong in that chunk.
type ChunkOutcome = Option<(Vec<SendVal>, u64, u64)>;

/// Fans `proto` out over `0..count` node handles in chunks of at least
/// [`PAR_MIN_CHUNK`] nodes. Each chunk runs its own VM against a
/// read-only profile binding with the caller's full remaining `budget`
/// and call `depth`; per-chunk results come back in node order
/// (determinism is by construction — pure callbacks make chunk
/// outcomes independent of scheduling). `None` if any chunk failed.
fn parallel_nodes(
    profile: &ev_core::Profile,
    chunk: &Chunk,
    proto: u16,
    count: usize,
    budget: u64,
    depth: usize,
    policy: ExecPolicy,
) -> Option<(Vec<SendVal>, u64, u64)> {
    let tasks = policy.threads.min(count.div_ceil(PAR_MIN_CHUNK));
    let ranges = ev_par::chunk_bounds(count, tasks);
    let outcomes: Vec<ChunkOutcome> = ev_par::fan_out(ranges, policy, |range| {
        let binding = Binding::Read(profile);
        let mut vm = Vm::new(binding, chunk, budget, ExecPolicy::SEQUENTIAL);
        vm.depth = depth;
        let arity = chunk.protos[proto as usize].arity;
        let callback = Value::VmFunc(Rc::new(VmFunc { proto, arity }));
        let mut vals = Vec::with_capacity(range.len());
        for node in range {
            let v = vm
                .call_value_1(&callback, Value::Num(node as f64), 0)
                .ok()?;
            vals.push(to_send(&v, 0).ok()?);
        }
        Some((vals, vm.steps, vm.ops))
    });
    let mut out = Vec::with_capacity(count);
    let mut steps = 0u64;
    let mut ops = 0u64;
    for outcome in outcomes {
        let (vals, s, o) = outcome?;
        out.extend(vals);
        steps = steps.saturating_add(s);
        ops += o;
    }
    if out.len() != count {
        return None;
    }
    Some((out, steps, ops))
}

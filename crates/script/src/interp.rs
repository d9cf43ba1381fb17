//! The EVscript tree-walking interpreter.

use crate::ast::{BinOp, Expr, ExprKind, Stmt, StmtKind, UnOp};
use crate::host::Binding;
use crate::ScriptError;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Default statement budget: scripts are interactive customizations, so
/// runaway loops are cut off rather than hanging the editor.
pub const DEFAULT_STEP_LIMIT: u64 = 10_000_000;

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A 64-bit float (EVscript's only number type).
    Num(f64),
    /// An immutable string.
    Str(Rc<String>),
    /// A boolean.
    Bool(bool),
    /// The absent value.
    Nil,
    /// A mutable list.
    List(Rc<RefCell<Vec<Value>>>),
    /// A function literal.
    Func(Rc<Function>),
    /// A compiled function (bytecode engine only): a prototype index
    /// into the enclosing chunk. The two engines never exchange values,
    /// so the tree-walker never observes this variant.
    VmFunc(Rc<VmFunc>),
}

/// A user-defined function.
#[derive(Debug)]
pub struct Function {
    pub params: Vec<String>,
    pub body: Vec<Stmt>,
}

/// A bytecode function value: created by the VM's `MakeFunc` op, one
/// fresh `Rc` per evaluation so identity semantics match the walker's
/// fresh `Rc<Function>` per `fn` literal evaluation.
#[derive(Debug)]
pub struct VmFunc {
    pub(crate) proto: u16,
    pub(crate) arity: usize,
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Rc::new(s.into()))
    }

    /// Builds a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(RefCell::new(items)))
    }

    /// The type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Bool(_) => "bool",
            Value::Nil => "nil",
            Value::List(_) => "list",
            Value::Func(_) | Value::VmFunc(_) => "function",
        }
    }

    /// Structural equality (`==`); values of different types are unequal,
    /// functions compare by identity.
    pub fn equals(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Nil, Value::Nil) => true,
            (Value::List(a), Value::List(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.equals(y))
            }
            (Value::Func(a), Value::Func(b)) => Rc::ptr_eq(a, b),
            (Value::VmFunc(a), Value::VmFunc(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// How deep [`value_snapshot`] recurses before giving up; bounds the
/// structural copy `map_nodes` takes of each callback result (and cuts
/// off self-referential lists deterministically in both engines).
pub(crate) const SNAPSHOT_DEPTH_LIMIT: usize = 64;

/// Structural copy of a value: lists are copied recursively (breaking
/// all aliasing, so `map_nodes` results are snapshots independent of
/// later mutation), everything else is cloned. `Err(())` when nesting
/// exceeds [`SNAPSHOT_DEPTH_LIMIT`].
pub(crate) fn value_snapshot(value: &Value, depth: usize) -> Result<Value, ()> {
    if depth > SNAPSHOT_DEPTH_LIMIT {
        return Err(());
    }
    Ok(match value {
        Value::List(items) => Value::list(
            items
                .borrow()
                .iter()
                .map(|item| value_snapshot(item, depth + 1))
                .collect::<Result<Vec<Value>, ()>>()?,
        ),
        other => other.clone(),
    })
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => {
                if *n == n.trunc() && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Nil => write!(f, "nil"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Func(func) => write!(f, "<fn/{}>", func.params.len()),
            Value::VmFunc(func) => write!(f, "<fn/{}>", func.arity),
        }
    }
}

/// Control flow result of executing statements.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// The interpreter: globals + call-frame locals over a [`Binding`].
pub(crate) struct Interpreter<'h> {
    host: Binding<'h>,
    globals: HashMap<String, Value>,
    /// Local scopes of the active call chain; lookups see the innermost
    /// frame then globals (no closures — functions capture nothing).
    frames: Vec<HashMap<String, Value>>,
    pub stdout: String,
    steps: u64,
    step_limit: u64,
}

impl<'h> Interpreter<'h> {
    pub fn new(host: Binding<'h>, step_limit: u64) -> Interpreter<'h> {
        Interpreter {
            host,
            globals: HashMap::new(),
            frames: Vec::new(),
            stdout: String::new(),
            steps: 0,
            step_limit,
        }
    }

    /// Statements/expressions charged so far (`step_limit + 1` exactly
    /// when the run died of budget exhaustion).
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    pub fn run(&mut self, program: &[Stmt]) -> Result<(), ScriptError> {
        match self.exec_block(program)? {
            Flow::Normal | Flow::Return(_) => Ok(()),
            Flow::Break | Flow::Continue => Err(ScriptError::new(
                "break/continue outside a loop",
                0,
            )),
        }
    }

    fn tick(&mut self, line: usize) -> Result<(), ScriptError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(ScriptError::new("step limit exceeded", line));
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Value> {
        if let Some(frame) = self.frames.last() {
            if let Some(v) = frame.get(name) {
                return Some(v.clone());
            }
        }
        self.globals.get(name).cloned()
    }

    fn define(&mut self, name: String, value: Value) {
        match self.frames.last_mut() {
            Some(frame) => {
                frame.insert(name, value);
            }
            None => {
                self.globals.insert(name, value);
            }
        }
    }

    fn assign(&mut self, name: &str, value: Value, line: usize) -> Result<(), ScriptError> {
        if let Some(frame) = self.frames.last_mut() {
            if let Some(slot) = frame.get_mut(name) {
                *slot = value;
                return Ok(());
            }
        }
        if let Some(slot) = self.globals.get_mut(name) {
            *slot = value;
            return Ok(());
        }
        Err(ScriptError::new(
            format!("assignment to undefined variable {name:?}"),
            line,
        ))
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow, ScriptError> {
        for stmt in stmts {
            match self.exec(stmt)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, stmt: &Stmt) -> Result<Flow, ScriptError> {
        self.tick(stmt.line)?;
        match &stmt.kind {
            StmtKind::Let(name, expr) => {
                let value = self.eval(expr)?;
                self.define(name.clone(), value);
                Ok(Flow::Normal)
            }
            StmtKind::Assign(target, expr) => {
                let value = self.eval(expr)?;
                match &target.kind {
                    ExprKind::Ident(name) => self.assign(name, value, stmt.line)?,
                    ExprKind::Index(list, index) => {
                        let list_value = self.eval(list)?;
                        let index_value = self.eval(index)?;
                        let Value::List(items) = list_value else {
                            return Err(ScriptError::new(
                                format!("cannot index a {}", list_value.type_name()),
                                stmt.line,
                            ));
                        };
                        let idx = self.index_of(&index_value, items.borrow().len(), stmt.line)?;
                        items.borrow_mut()[idx] = value;
                    }
                    _ => unreachable!("parser rejects other targets"),
                }
                Ok(Flow::Normal)
            }
            StmtKind::If(cond, then, otherwise) => {
                if self.truthy(cond)? {
                    self.exec_block(then)
                } else {
                    self.exec_block(otherwise)
                }
            }
            StmtKind::While(cond, body) => {
                while self.truthy(cond)? {
                    self.tick(stmt.line)?;
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For(var, iterable, body) => {
                let value = self.eval(iterable)?;
                let Value::List(items) = value else {
                    return Err(ScriptError::new(
                        format!("for expects a list, found {}", value.type_name()),
                        stmt.line,
                    ));
                };
                // Snapshot: mutating the list inside the loop is allowed
                // but does not change the iteration.
                let snapshot: Vec<Value> = items.borrow().clone();
                for item in snapshot {
                    self.tick(stmt.line)?;
                    self.define(var.clone(), item);
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::FnDef(name, params, body) => {
                let func = Value::Func(Rc::new(Function {
                    params: params.clone(),
                    body: body.clone(),
                }));
                self.define(name.clone(), func);
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Return(expr) => {
                let value = match expr {
                    Some(e) => self.eval(e)?,
                    None => Value::Nil,
                };
                Ok(Flow::Return(value))
            }
            StmtKind::Expr(expr) => {
                self.eval(expr)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn truthy(&mut self, cond: &Expr) -> Result<bool, ScriptError> {
        match self.eval(cond)? {
            Value::Bool(b) => Ok(b),
            other => Err(ScriptError::new(
                format!("condition must be a bool, found {}", other.type_name()),
                cond.line,
            )),
        }
    }

    fn index_of(&self, value: &Value, len: usize, line: usize) -> Result<usize, ScriptError> {
        let Value::Num(n) = value else {
            return Err(ScriptError::new(
                format!("index must be a number, found {}", value.type_name()),
                line,
            ));
        };
        let idx = *n as i64;
        if idx < 0 || idx as usize >= len || *n != n.trunc() {
            return Err(ScriptError::new(
                format!("index {n} out of bounds for list of {len}"),
                line,
            ));
        }
        Ok(idx as usize)
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, ScriptError> {
        self.tick(expr.line)?;
        match &expr.kind {
            ExprKind::Number(n) => Ok(Value::Num(*n)),
            ExprKind::Str(s) => Ok(Value::str(s.clone())),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Nil => Ok(Value::Nil),
            ExprKind::Ident(name) => self.lookup(name).ok_or_else(|| {
                ScriptError::new(format!("undefined variable {name:?}"), expr.line)
            }),
            ExprKind::List(items) => {
                let values: Result<Vec<Value>, ScriptError> =
                    items.iter().map(|item| self.eval(item)).collect();
                Ok(Value::list(values?))
            }
            ExprKind::Unary(op, operand) => {
                let value = self.eval(operand)?;
                match (op, value) {
                    (UnOp::Neg, Value::Num(n)) => Ok(Value::Num(-n)),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, value) => Err(ScriptError::new(
                        format!("cannot apply {op:?} to {}", value.type_name()),
                        expr.line,
                    )),
                }
            }
            ExprKind::Binary(op, lhs, rhs) => self.binary(*op, lhs, rhs, expr.line),
            ExprKind::Index(list, index) => {
                let list_value = self.eval(list)?;
                let index_value = self.eval(index)?;
                match list_value {
                    Value::List(items) => {
                        let idx =
                            self.index_of(&index_value, items.borrow().len(), expr.line)?;
                        let v = items.borrow()[idx].clone();
                        Ok(v)
                    }
                    other => Err(ScriptError::new(
                        format!("cannot index a {}", other.type_name()),
                        expr.line,
                    )),
                }
            }
            ExprKind::Function(params, body) => Ok(Value::Func(Rc::new(Function {
                params: params.clone(),
                body: body.clone(),
            }))),
            ExprKind::Call(callee, args) => {
                // Builtins dispatch by name before variable lookup, so
                // user code can't accidentally shadow `print`.
                if let ExprKind::Ident(name) = &callee.kind {
                    if is_builtin(name) && self.lookup(name).is_none() {
                        let mut values = Vec::with_capacity(args.len());
                        for arg in args {
                            values.push(self.eval(arg)?);
                        }
                        return self.call_builtin(name, values, expr.line);
                    }
                }
                let callee_value = self.eval(callee)?;
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(self.eval(arg)?);
                }
                self.call_value(&callee_value, values, expr.line)
            }
        }
    }

    fn binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        line: usize,
    ) -> Result<Value, ScriptError> {
        // Short-circuit operators evaluate lazily.
        match op {
            BinOp::And => {
                return Ok(Value::Bool(self.truthy(lhs)? && self.truthy(rhs)?));
            }
            BinOp::Or => {
                return Ok(Value::Bool(self.truthy(lhs)? || self.truthy(rhs)?));
            }
            _ => {}
        }
        let left = self.eval(lhs)?;
        let right = self.eval(rhs)?;
        match op {
            BinOp::Eq => return Ok(Value::Bool(left.equals(&right))),
            BinOp::NotEq => return Ok(Value::Bool(!left.equals(&right))),
            _ => {}
        }
        // String concatenation with +.
        if op == BinOp::Add {
            if let (Value::Str(a), Value::Str(b)) = (&left, &right) {
                return Ok(Value::str(format!("{a}{b}")));
            }
        }
        // String ordering comparisons.
        if let (Value::Str(a), Value::Str(b)) = (&left, &right) {
            let result = match op {
                BinOp::Lt => a < b,
                BinOp::LtEq => a <= b,
                BinOp::Gt => a > b,
                BinOp::GtEq => a >= b,
                _ => {
                    return Err(ScriptError::new(
                        format!("cannot apply {op:?} to strings"),
                        line,
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
                line,
            ));
        };
        let (a, b) = (*a, *b);
        let value = match op {
            BinOp::Add => Value::Num(a + b),
            BinOp::Sub => Value::Num(a - b),
            BinOp::Mul => Value::Num(a * b),
            BinOp::Div => {
                if b == 0.0 {
                    return Err(ScriptError::new("division by zero", line));
                }
                Value::Num(a / b)
            }
            BinOp::Rem => {
                if b == 0.0 {
                    return Err(ScriptError::new("division by zero", line));
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

    pub(crate) fn call_value(
        &mut self,
        callee: &Value,
        args: Vec<Value>,
        line: usize,
    ) -> Result<Value, ScriptError> {
        let Value::Func(func) = callee else {
            return Err(ScriptError::new(
                format!("cannot call a {}", callee.type_name()),
                line,
            ));
        };
        if args.len() != func.params.len() {
            return Err(ScriptError::new(
                format!(
                    "function expects {} arguments, got {}",
                    func.params.len(),
                    args.len()
                ),
                line,
            ));
        }
        if self.frames.len() >= 64 {
            return Err(ScriptError::new("call stack too deep", line));
        }
        let mut frame = HashMap::with_capacity(args.len());
        for (param, arg) in func.params.iter().zip(args) {
            frame.insert(param.clone(), arg);
        }
        self.frames.push(frame);
        let result = self.exec_block(&func.body);
        self.frames.pop();
        match result? {
            Flow::Return(value) => Ok(value),
            Flow::Normal => Ok(Value::Nil),
            Flow::Break | Flow::Continue => Err(ScriptError::new(
                "break/continue outside a loop",
                line,
            )),
        }
    }

    fn arg_num(&self, args: &[Value], i: usize, line: usize) -> Result<f64, ScriptError> {
        match args.get(i) {
            Some(Value::Num(n)) => Ok(*n),
            Some(other) => Err(ScriptError::new(
                format!("argument {} must be a number, found {}", i + 1, other.type_name()),
                line,
            )),
            None => Err(ScriptError::new(format!("missing argument {}", i + 1), line)),
        }
    }

    fn arg_str(&self, args: &[Value], i: usize, line: usize) -> Result<String, ScriptError> {
        match args.get(i) {
            Some(Value::Str(s)) => Ok(s.as_ref().clone()),
            Some(other) => Err(ScriptError::new(
                format!("argument {} must be a string, found {}", i + 1, other.type_name()),
                line,
            )),
            None => Err(ScriptError::new(format!("missing argument {}", i + 1), line)),
        }
    }

    fn arg_node(&self, args: &[Value], i: usize, line: usize) -> Result<usize, ScriptError> {
        let n = self.arg_num(args, i, line)?;
        let count = self.host.node_count();
        if n < 0.0 || n as usize >= count || n != n.trunc() {
            return Err(ScriptError::new(
                format!("node handle {n} out of range (0..{count})"),
                line,
            ));
        }
        Ok(n as usize)
    }

    fn host_err(msg: String, line: usize) -> ScriptError {
        ScriptError::new(msg, line)
    }

    fn call_builtin(
        &mut self,
        name: &str,
        args: Vec<Value>,
        line: usize,
    ) -> Result<Value, ScriptError> {
        match name {
            "print" => {
                let rendered: Vec<String> = args.iter().map(Value::to_string).collect();
                self.stdout.push_str(&rendered.join(" "));
                self.stdout.push('\n');
                Ok(Value::Nil)
            }
            "len" => match args.first() {
                Some(Value::List(items)) => Ok(Value::Num(items.borrow().len() as f64)),
                Some(Value::Str(s)) => Ok(Value::Num(s.chars().count() as f64)),
                other => Err(ScriptError::new(
                    format!(
                        "len expects a list or string, found {}",
                        other.map_or("nothing", |v| v.type_name())
                    ),
                    line,
                )),
            },
            "push" => {
                let Some(Value::List(items)) = args.first() else {
                    return Err(ScriptError::new("push expects a list", line));
                };
                let value = args.get(1).cloned().unwrap_or(Value::Nil);
                items.borrow_mut().push(value);
                Ok(Value::Nil)
            }
            "str" => Ok(Value::str(
                args.first().map(Value::to_string).unwrap_or_default(),
            )),
            "abs" => Ok(Value::Num(self.arg_num(&args, 0, line)?.abs())),
            "floor" => Ok(Value::Num(self.arg_num(&args, 0, line)?.floor())),
            "sqrt" => Ok(Value::Num(self.arg_num(&args, 0, line)?.sqrt())),
            "min" => Ok(Value::Num(
                self.arg_num(&args, 0, line)?.min(self.arg_num(&args, 1, line)?),
            )),
            "max" => Ok(Value::Num(
                self.arg_num(&args, 0, line)?.max(self.arg_num(&args, 1, line)?),
            )),
            "range" => {
                let (start, end) = if args.len() >= 2 {
                    (self.arg_num(&args, 0, line)?, self.arg_num(&args, 1, line)?)
                } else {
                    (0.0, self.arg_num(&args, 0, line)?)
                };
                if end - start > 10_000_000.0 {
                    return Err(ScriptError::new("range too large", line));
                }
                let items: Vec<Value> =
                    ((start as i64)..(end as i64)).map(|i| Value::Num(i as f64)).collect();
                Ok(Value::list(items))
            }
            // ---- profile bindings -------------------------------------
            "node_count" => Ok(Value::Num(self.host.node_count() as f64)),
            "nodes" => {
                let items: Vec<Value> =
                    (0..self.host.node_count()).map(|i| Value::Num(i as f64)).collect();
                Ok(Value::list(items))
            }
            "name" => {
                let node = self.arg_node(&args, 0, line)?;
                Ok(Value::str(self.host.node_name(node).unwrap_or_default()))
            }
            "file" => {
                let node = self.arg_node(&args, 0, line)?;
                Ok(Value::str(self.host.node_file(node).unwrap_or_default()))
            }
            "line" => {
                let node = self.arg_node(&args, 0, line)?;
                Ok(Value::Num(f64::from(
                    self.host.node_line(node).unwrap_or(0),
                )))
            }
            "module" => {
                let node = self.arg_node(&args, 0, line)?;
                Ok(Value::str(self.host.node_module(node).unwrap_or_default()))
            }
            "parent" => {
                let node = self.arg_node(&args, 0, line)?;
                Ok(match self.host.node_parent(node) {
                    Some(p) => Value::Num(p as f64),
                    None => Value::Nil,
                })
            }
            "children" => {
                let node = self.arg_node(&args, 0, line)?;
                let items: Vec<Value> = self
                    .host
                    .node_children(node)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|c| Value::Num(c as f64))
                    .collect();
                Ok(Value::list(items))
            }
            "value" => {
                let node = self.arg_node(&args, 0, line)?;
                let metric = self.arg_str(&args, 1, line)?;
                self.host
                    .get_value(node, &metric)
                    .map(Value::Num)
                    .map_err(|e| Self::host_err(e, line))
            }
            "set_value" => {
                let node = self.arg_node(&args, 0, line)?;
                let metric = self.arg_str(&args, 1, line)?;
                let value = self.arg_num(&args, 2, line)?;
                self.host
                    .set_value(node, &metric, value)
                    .map(|()| Value::Nil)
                    .map_err(|e| Self::host_err(e, line))
            }
            "add_metric" => {
                let metric = self.arg_str(&args, 0, line)?;
                self.host
                    .add_metric(&metric)
                    .map(|()| Value::Nil)
                    .map_err(|e| Self::host_err(e, line))
            }
            "total" => {
                let metric = self.arg_str(&args, 0, line)?;
                self.host
                    .total(&metric)
                    .map(Value::Num)
                    .map_err(|e| Self::host_err(e, line))
            }
            "metrics" => Ok(Value::list(
                self.host.metric_names().into_iter().map(Value::str).collect(),
            )),
            // ---- the paper's two callback classes ---------------------
            "visit" => {
                // Callback at node visit (§V-B): run f at every node in
                // pre-order (handles are creation-ordered: parents first).
                let Some(callback @ Value::Func(_)) = args.first().cloned() else {
                    return Err(ScriptError::new("visit expects a function", line));
                };
                for node in 0..self.host.node_count() {
                    self.call_value(&callback, vec![Value::Num(node as f64)], line)?;
                }
                Ok(Value::Nil)
            }
            "derive" => {
                // Callback at metric computation (§V-B): f(node) yields
                // the new metric's value at each node. Two-phase: every
                // value is computed against the pre-derive state, then
                // written — the callback never observes its own partial
                // writes, which is also what lets the bytecode engine
                // fan the compute phase out over worker threads.
                let metric = self.arg_str(&args, 0, line)?;
                let Some(callback @ Value::Func(_)) = args.get(1).cloned() else {
                    return Err(ScriptError::new("derive expects a function", line));
                };
                self.host
                    .add_metric(&metric)
                    .map_err(|e| Self::host_err(e, line))?;
                let count = self.host.node_count();
                let mut derived = Vec::with_capacity(count);
                for node in 0..count {
                    derived.push(self.call_value(&callback, vec![Value::Num(node as f64)], line)?);
                }
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
            "map_nodes" => {
                // f(node) at every node in pre-order, collecting the
                // results into a list. Results are structural snapshots
                // (aliasing broken), so the list is independent of what
                // the callback's locals referenced — and identical
                // whether the bytecode engine computed it inline or on
                // worker threads.
                let Some(callback @ Value::Func(_)) = args.first().cloned() else {
                    return Err(ScriptError::new("map_nodes expects a function", line));
                };
                let count = self.host.node_count();
                let mut items = Vec::with_capacity(count);
                for node in 0..count {
                    let v = self.call_value(&callback, vec![Value::Num(node as f64)], line)?;
                    items.push(value_snapshot(&v, 0).map_err(|()| {
                        ScriptError::new("map_nodes result nesting too deep", line)
                    })?);
                }
                Ok(Value::list(items))
            }
            _ => unreachable!("is_builtin gate"),
        }
    }
}

/// Names handled by [`Interpreter::call_builtin`].
pub(crate) fn is_builtin(name: &str) -> bool {
    matches!(
        name,
        "print"
            | "len"
            | "push"
            | "str"
            | "abs"
            | "floor"
            | "sqrt"
            | "min"
            | "max"
            | "range"
            | "node_count"
            | "nodes"
            | "name"
            | "file"
            | "line"
            | "module"
            | "parent"
            | "children"
            | "value"
            | "set_value"
            | "add_metric"
            | "total"
            | "metrics"
            | "visit"
            | "derive"
            | "map_nodes"
    )
}

//! `ev-script` — **EVscript**, EasyView's embedded customization
//! language (paper §V-B).
//!
//! The paper lets users customize profile analysis by writing code in a
//! programming pane, executed in-process with no extra installation
//! (the original uses Python compiled to WebAssembly). This crate is the
//! equivalent substrate: a small dynamically-typed language with a
//! lexer, Pratt parser, and tree-walking interpreter, plus host bindings
//! that expose the two callback classes the paper defines:
//!
//! * **callbacks at node visit** — [`ScriptHost::run`] scripts call
//!   `visit(fn)` to run a function at every node during tree traversal
//!   (merge nodes, elide nodes, collect statistics);
//! * **callbacks at metric computation** — scripts call
//!   `derive(name, fn)` to compute a new metric from a formula at every
//!   node (CPI, MPKI, memory-scaling ratios, …).
//!
//! # Language
//!
//! ```text
//! let threshold = total("cpu") * 0.01;
//! let hot = 0;
//! visit(fn(n) {
//!     if value(n, "cpu") > threshold { hot = hot + 1; }
//! });
//! derive("cpi", fn(n) { value(n, "cycles") / value(n, "instructions") });
//! print("hot nodes:", hot);
//! ```
//!
//! Values: numbers (f64), strings, booleans, `nil`, lists, and
//! functions. Statements: `let`, assignment, `if`/`else`, `while`,
//! `for x in list`, `fn`, `return`, blocks, expression statements.
//!
//! # Examples
//!
//! ```
//! use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};
//! use ev_script::ScriptHost;
//!
//! let mut p = Profile::new("demo");
//! let m = p.add_metric(MetricDescriptor::new(
//!     "cpu",
//!     MetricUnit::Count,
//!     MetricKind::Exclusive,
//! ));
//! p.add_sample(&[Frame::function("main")], &[(m, 10.0)]);
//!
//! let mut host = ScriptHost::new(&mut p);
//! let out = host.run("print(\"total:\", total(\"cpu\"));").unwrap();
//! assert_eq!(out.stdout, "total: 10\n");
//! ```

#![forbid(unsafe_code)]

mod ast;
mod compile;
mod host;
mod interp;
mod lexer;
mod parser;
mod vm;

pub use host::{disassemble_source, ScriptEngine, ScriptHost, ScriptOutput};
pub use interp::{Value, DEFAULT_STEP_LIMIT};

use std::error::Error;
use std::fmt;

/// An EVscript compile- or run-time error, with the 1-based source line
/// where it occurred.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line (0 when unknown).
    pub line: usize,
}

impl ScriptError {
    pub(crate) fn new(message: impl Into<String>, line: usize) -> ScriptError {
        ScriptError {
            message: message.into(),
            line,
        }
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "script error: {}", self.message)
        } else {
            write!(f, "script error at line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ScriptError {}

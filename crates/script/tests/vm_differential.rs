//! Differential conformance: the bytecode VM against the tree-walking
//! reference interpreter.
//!
//! Every program here — handcrafted corpus, generated programs, and the
//! step-limit regressions — must produce the *same observable run* on
//! both engines: identical `Result<ScriptOutput, ScriptError>`,
//! identical step accounting (including on the error path), identical
//! partial stdout, and an identical final `Profile`. The bytecode
//! engine is additionally pinned at `--threads 1/2/8` so parallel
//! callback fan-out stays bit-identical to the sequential run.

use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};
use ev_par::ExecPolicy;
use ev_script::{ScriptEngine, ScriptHost, ScriptOutput, ScriptError, DEFAULT_STEP_LIMIT};
use ev_test::Rng;

// ---- harness -------------------------------------------------------

/// Six-node fixture: root → {main → {hot(hot.c:9) → inner, cold},
/// util}, with metrics "cpu" and "alloc".
fn fixture() -> Profile {
    let mut p = Profile::new("diff");
    let cpu = p.add_metric(MetricDescriptor::new(
        "cpu",
        MetricUnit::Count,
        MetricKind::Exclusive,
    ));
    let alloc = p.add_metric(MetricDescriptor::new(
        "alloc",
        MetricUnit::Bytes,
        MetricKind::Exclusive,
    ));
    p.add_sample(
        &[Frame::function("main"), Frame::function("hot").with_source("hot.c", 9)],
        &[(cpu, 90.0), (alloc, 4096.0)],
    );
    p.add_sample(&[Frame::function("main"), Frame::function("cold")], &[(cpu, 10.0)]);
    p.add_sample(
        &[
            Frame::function("main"),
            Frame::function("hot").with_source("hot.c", 9),
            Frame::function("inner"),
        ],
        &[(cpu, 5.0)],
    );
    p.add_sample(&[Frame::function("util")], &[(alloc, 512.0)]);
    p
}

struct RunResult {
    outcome: Result<ScriptOutput, ScriptError>,
    steps: u64,
    stdout: String,
    profile: Profile,
}

fn exec(src: &str, engine: ScriptEngine, threads: Option<usize>, limit: u64) -> RunResult {
    let mut profile = fixture();
    let mut host = ScriptHost::new(&mut profile)
        .with_engine(engine)
        .with_step_limit(limit);
    if let Some(t) = threads {
        host = host.with_policy(ExecPolicy::with_threads(t));
    }
    let outcome = host.run(src);
    let steps = host.last_steps();
    let stdout = host.last_stdout().to_owned();
    drop(host);
    RunResult {
        outcome,
        steps,
        stdout,
        profile,
    }
}

fn compare(label: &str, src: &str, reference: &RunResult, candidate: &RunResult) {
    assert_eq!(
        reference.outcome, candidate.outcome,
        "outcome diverged ({label})\n--- program ---\n{src}"
    );
    assert_eq!(
        reference.steps, candidate.steps,
        "step count diverged ({label})\n--- program ---\n{src}"
    );
    assert_eq!(
        reference.stdout, candidate.stdout,
        "stdout diverged ({label})\n--- program ---\n{src}"
    );
    assert_eq!(
        reference.profile, candidate.profile,
        "profile diverged ({label})\n--- program ---\n{src}"
    );
}

/// Pins Bytecode == Reference, then Bytecode at 1/2/8 threads ==
/// Reference, for one program under one step budget.
fn assert_equivalent_with_limit(src: &str, limit: u64) {
    let reference = exec(src, ScriptEngine::Reference, None, limit);
    let vm = exec(src, ScriptEngine::Bytecode, None, limit);
    compare("bytecode", src, &reference, &vm);
    for threads in [1usize, 2, 8] {
        let par = exec(src, ScriptEngine::Bytecode, Some(threads), limit);
        compare(&format!("bytecode, {threads} threads"), src, &reference, &par);
    }
}

fn assert_equivalent(src: &str) {
    assert_equivalent_with_limit(src, 100_000);
}

// ---- handcrafted corpus --------------------------------------------

/// Every program in the corpus must run identically on both engines —
/// successes and failures alike. Grouped by what they pin down.
const CORPUS: &[&str] = &[
    // arithmetic, comparison, logic
    "print(1 + 2 * 3 - 4 / 8 % 3);",
    "print(-5, - -5, !true, !false);",
    "print(1 == 1.0, \"a\" == \"a\", [1, 2] == [1, 2], nil == nil, true != false);",
    "print([1] == [1, 2], [1, \"a\"] == [1, \"a\"], nil == 0, 1 == \"1\");",
    "print(\"a\" + \"b\", \"a\" < \"b\", \"b\" <= \"a\", \"z\" > \"a\", \"a\" >= \"a\");",
    "print(1 < 2 && 2 < 3 || false);",
    "print(true || undefined_var, false && undefined_var);",
    "print(1 / 0);",
    "print(1 % 0);",
    "print(1 + true);",
    "print(\"a\" - \"b\");",
    "print([1] * 2);",
    "print(nil + 1);",
    "print(-\"x\");",
    "print(!0);",
    "print(1 < \"a\");",
    // variables and the two-level dynamic scope
    "let a = 1; a = a + 1; { let a = 5; } print(a);",
    "print(missing);",
    "missing = 3;",
    "let g = 1; fn f() { return g; } fn h() { let g = 2; return f(); } print(h());",
    "let x = 10; fn f() { let x = 2; return x; } print(f(), x);",
    "let y = 5; fn f(c) { if c { let y = 9; } return y; } print(f(true), f(false));",
    // functions
    "fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); } print(fib(12));",
    "fn f(a) { return a; } f(1, 2);",
    "let f = 1; f();",
    "fn f(n) { return f(n + 1); } f(0);",
    "fn f(a, a) { return a; } print(f(1, 2));",
    "let add = fn(a, b) { return a + b; }; print(add(3, 4));",
    "fn f() { return 1; } let g = f; print(g(), g == f, f == fib);",
    "fn f() { return; } print(f());",
    "fn f() { 1 + 1; } print(f());",
    "fn f() { for i in range(10) { if i == 3 { return i; } } return -1; } print(f());",
    // control flow
    "let c = []; for i in range(10) { if i % 2 == 0 { continue; } if i > 6 { break; } push(c, i); } print(c);",
    "break;",
    "continue;",
    "fn f() { break; } for i in range(3) { f(); }",
    "fn f() { continue; } while true { f(); }",
    "let s = 0; for i in range(3) { for j in range(3) { if j == 2 { break; } s = s + i * 10 + j; } } print(s);",
    "let i = 0; let s = 0; while i < 10 { i = i + 1; if i % 2 == 0 { continue; } s = s + i; } print(s, i);",
    "if 1 { }",
    "while \"x\" { }",
    "if nil { } else { print(\"else\"); }",
    "for x in 5 { }",
    "for x in \"abc\" { }",
    "let xs = [1, 2, 3]; for x in xs { push(xs, x * 10); } print(xs);",
    "for i in range(3) { } print(i);",
    "for x in [] { print(\"no\"); } print(\"done\");",
    // lists and indexing
    "let xs = [10, 20, 30]; xs[1] = 25; push(xs, 40); print(xs, len(xs), xs[3]);",
    "let xs = [1]; print(xs[5]);",
    "let xs = [1]; print(xs[-1]);",
    "let xs = [1]; print(xs[\"a\"]);",
    "print(1[0]);",
    "print(\"abc\"[0]);",
    "let xs = [1]; xs[9] = 0;",
    "let n = 1; n[0] = 2;",
    "let m = [[1, 2], [3, 4]]; m[1][0] = 30; print(m, m[1][0]);",
    // builtins
    "print(len([1, 2]), len(\"abc\"));",
    "print(len(1));",
    "print(str(1), str(true) + str(nil), str([1, \"a\"]));",
    "print(abs(-2), floor(2.7), sqrt(9), min(3, 1), max(3, 1));",
    "print(sqrt(\"x\"));",
    "print(abs(true));",
    "print(range(0), range(1), len(range(5)), range(2, 5));",
    "print(range(20000001));",
    "let xs = []; push(xs, 1); print(xs);",
    "print(push(1, 2));",
    // profile host calls
    "print(node_count(), total(\"cpu\"), total(\"alloc\"), metrics());",
    "visit(fn(n) { print(n, name(n), file(n), line(n), value(n, \"cpu\")); });",
    "print(name(2), parent(2), children(1), module(0));",
    "print(value(0, \"nope\"));",
    "print(value(999, \"cpu\"));",
    "print(name(99));",
    "print(total(\"nope\"));",
    "add_metric(\"doubled\"); visit(fn(n) { set_value(n, \"doubled\", value(n, \"cpu\") * 2); }); print(total(\"doubled\"));",
    // derive / map_nodes / visit edges
    "derive(\"share\", fn(n) { return value(n, \"cpu\") / total(\"cpu\"); }); print(total(\"share\"));",
    "derive(\"bad\", fn(n) { if n == 2 { return \"x\" + 1; } return 1; }); print(\"unreached\");",
    "derive(\"bad\", fn(n) { return \"s\"; });",
    "visit(1);",
    "derive(\"m\", 2);",
    "map_nodes(nil);",
    "visit(fn() { return 1; });",
    "let v = map_nodes(fn(n) { return value(n, \"cpu\") * 2; }); print(v);",
    "map_nodes(fn(n) { print(n); return n; });",
    "fn deep(k) { let v = []; while k > 0 { v = [v]; k = k - 1; } return v; }\nlet v = map_nodes(fn(n) { return deep(70); });",
    "map_nodes(fn(n) { if n == 3 { return 1 / 0; } return n; });",
    "let k = 2; let v = map_nodes(fn(n) { return n * k; }); print(v);",
    "let v = map_nodes(fn(n) { return [name(n), value(n, \"cpu\")]; }); print(v);",
    // builtin shadowing
    "fn len(x) { return 99; } print(len([1, 2, 3]));",
    "let len = 5; print(len + 1);",
    "let str = 1; str(2);",
    "if node_count() > 100 { let len = 7; } print(len([1, 2]));",
    "if node_count() < 100 { let len = 7; } print(len);",
    "print(len);",
    // strings
    "let s = \"\"; for i in range(3) { s = s + str(i) + \",\"; } print(s);",
    // a pure map_nodes callback that passes a nested recursive helper
    // to itself
    "let scores = map_nodes(fn(n) {
        fn damp(v, k, self) {
            if k < 1 { return v; }
            return self(v * 0.5 + 1, k - 1, self);
        }
        return damp(value(n, \"cpu\"), 4, damp);
    });
    let acc = 0;
    for s in scores { acc = acc + s; }
    print(node_count(), floor(acc));",
];

#[test]
fn handcrafted_corpus_is_engine_identical() {
    for src in CORPUS {
        assert_equivalent(src);
    }
}

// ---- nesting limit -------------------------------------------------

/// Builds a program nested `n` levels deep in one construct.
type Nester = fn(usize) -> String;

const NESTERS: &[(&str, Nester)] = &[
    ("if blocks", |n| {
        format!("{}print(1);{}", "if true { ".repeat(n), "}".repeat(n))
    }),
    ("else-if chain", |n| {
        format!("{}print(1);", "if false { } else ".repeat(n))
    }),
    ("fn literals", |n| {
        format!(
            "let g = {}1{}; print(g);",
            "fn() { return ".repeat(n),
            "; }".repeat(n)
        )
    }),
    ("parentheses", |n| {
        format!("print({}1{});", "(".repeat(n), ")".repeat(n))
    }),
    ("unary minus", |n| format!("print({}1);", "-".repeat(n))),
    ("operator chain", |n| format!("print(1{});", "+1".repeat(n))),
    ("call chain", |n| {
        format!("fn f() {{ return f; }} print(f{});", "()".repeat(n))
    }),
];

fn too_deep(result: &RunResult) -> bool {
    matches!(&result.outcome, Err(e) if e.message.starts_with("nesting deeper than"))
}

#[test]
fn nesting_limit_is_engine_identical() {
    // The deepest program the parser accepts in each construct runs
    // identically on both engines on this test thread (2 MiB by
    // default); one level deeper is the same clean error on both.
    for (label, nest) in NESTERS {
        let deepest = (1..)
            .find(|&n| too_deep(&exec(&nest(n + 1), ScriptEngine::Bytecode, None, 100_000)))
            .unwrap();
        // Real scripts nest a few levels; the cap must leave them room.
        assert!(deepest >= 40, "{label}: only {deepest} levels accepted");
        assert_equivalent(&nest(deepest));
        assert_equivalent(&nest(deepest + 1));
    }
}

// ---- step-limit identity -------------------------------------------

#[test]
fn step_limit_exhaustion_is_identical_under_small_budgets() {
    // Exhaustion inside every construct that charges steps: plain
    // statements, while iterations, for iterations, recursive calls,
    // and parallel-eligible callbacks (where the budget check must
    // force the inline fallback, not a divergent partial result).
    let programs = [
        "while true { }",
        "let i = 0; while i < 100000 { i = i + 1; }",
        "for i in range(100000) { let x = i * 2; }",
        "fn f(n) { if n == 0 { return 0; } return f(n - 1); } let i = 0; while true { f(60); i = i + 1; }",
        "map_nodes(fn(n) { let s = 0; for i in range(5000) { s = s + i; } return s; });",
        "let i = 0; while i < 1000 { i = i + 1; print(i); }",
    ];
    for src in &programs {
        for limit in [50u64, 100, 500, 5_000] {
            assert_equivalent_with_limit(src, limit);
        }
    }
}

#[test]
fn default_step_limit_exhaustion_is_identical() {
    // Regression for the unified accounting: a program that exhausts
    // DEFAULT_STEP_LIMIT must die with the same ScriptError at the same
    // step count (exactly limit + 1) in both engines.
    let src = "while true { }";
    let reference = exec(src, ScriptEngine::Reference, None, DEFAULT_STEP_LIMIT);
    let vm = exec(src, ScriptEngine::Bytecode, None, DEFAULT_STEP_LIMIT);
    let err_ref = reference.outcome.clone().unwrap_err();
    let err_vm = vm.outcome.clone().unwrap_err();
    assert_eq!(err_ref, err_vm);
    assert_eq!(err_vm.message, "step limit exceeded");
    assert_eq!(err_vm.line, 1);
    assert_eq!(reference.steps, DEFAULT_STEP_LIMIT + 1);
    assert_eq!(vm.steps, DEFAULT_STEP_LIMIT + 1);
}

// ---- generated programs --------------------------------------------
//
// A deterministic program generator: syntactically valid by
// construction, semantically unconstrained — runtime errors, step-limit
// exhaustion, and host mutations are all fair game, because the claim
// under test is *run identity*, not success.

struct Gen {
    rng: Rng,
    out: String,
    vars: Vec<String>,
    funcs: Vec<(String, usize)>,
    next_var: usize,
}

const STR_POOL: &[&str] = &["a", "b", "x,y", "hot", "cpu", ""];
const BIN_OPS: &[&str] = &["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"];

impl Gen {
    fn new(rng: Rng) -> Gen {
        Gen {
            rng,
            out: String::new(),
            vars: Vec::new(),
            funcs: Vec::new(),
            next_var: 0,
        }
    }

    fn fresh_var(&mut self) -> String {
        let name = format!("v{}", self.next_var);
        self.next_var += 1;
        name
    }

    fn expr(&mut self, depth: usize) -> String {
        let leaf = depth == 0 || self.rng.gen_bool(0.3);
        if leaf {
            match self.rng.gen_range(0..10u32) {
                0 => format!("{}", self.rng.gen_range(-3i64..=10)),
                1 => format!("{}.5", self.rng.gen_range(0i64..=4)),
                2 => format!("{:?}", STR_POOL[self.rng.gen_range(0..STR_POOL.len())]),
                3 => (if self.rng.gen_bool(0.5) { "true" } else { "false" }).to_owned(),
                4 => "nil".to_owned(),
                5 => "node_count()".to_owned(),
                6 => "total(\"cpu\")".to_owned(),
                7 | 8 => {
                    if self.vars.is_empty() {
                        "0".to_owned()
                    } else {
                        self.vars[self.rng.gen_range(0..self.vars.len())].clone()
                    }
                }
                _ => {
                    // occasionally an undefined name, for the error path
                    if self.rng.gen_bool(0.3) {
                        "zz_undefined".to_owned()
                    } else {
                        "1".to_owned()
                    }
                }
            }
        } else {
            match self.rng.gen_range(0..12u32) {
                0..=3 => {
                    let op = BIN_OPS[self.rng.gen_range(0..BIN_OPS.len())];
                    format!("({} {} {})", self.expr(depth - 1), op, self.expr(depth - 1))
                }
                4 => format!("(-{})", self.expr(depth - 1)),
                5 => format!("(!{})", self.expr(depth - 1)),
                6 => format!("[{}, {}]", self.expr(depth - 1), self.expr(depth - 1)),
                7 => format!(
                    "[{}, {}][{}]",
                    self.expr(depth - 1),
                    self.expr(depth - 1),
                    self.expr(depth - 1)
                ),
                8 => {
                    let f = ["len", "str", "abs", "floor", "sqrt"]
                        [self.rng.gen_range(0..5usize)];
                    format!("{f}({})", self.expr(depth - 1))
                }
                9 => {
                    let f = ["min", "max"][self.rng.gen_range(0..2usize)];
                    format!("{f}({}, {})", self.expr(depth - 1), self.expr(depth - 1))
                }
                10 => match self.rng.gen_range(0..4u32) {
                    0 => format!("value({}, \"cpu\")", self.rng.gen_range(0i64..=7)),
                    1 => format!("name({})", self.rng.gen_range(0i64..=7)),
                    2 => format!("children({})", self.rng.gen_range(0i64..=7)),
                    _ => format!("parent({})", self.rng.gen_range(0i64..=7)),
                },
                _ => {
                    if self.funcs.is_empty() {
                        format!("str({})", self.expr(depth - 1))
                    } else {
                        let (name, arity) =
                            self.funcs[self.rng.gen_range(0..self.funcs.len())].clone();
                        // sometimes the wrong arity, for the error path
                        let argc = if self.rng.gen_bool(0.85) {
                            arity
                        } else {
                            self.rng.gen_range(0..=3usize)
                        };
                        let args: Vec<String> =
                            (0..argc).map(|_| self.expr(depth - 1)).collect();
                        format!("{name}({})", args.join(", "))
                    }
                }
            }
        }
    }

    /// A condition: usually comparison-shaped, sometimes arbitrary
    /// (exercising the non-bool-condition error on both engines).
    fn cond(&mut self, depth: usize) -> String {
        if self.rng.gen_bool(0.85) {
            let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.gen_range(0..6usize)];
            format!("({} {} {})", self.expr(depth), op, self.expr(depth))
        } else {
            self.expr(depth)
        }
    }

    fn callback(&mut self) -> String {
        match self.rng.gen_range(0..4u32) {
            0 => "fn(n) { return value(n, \"cpu\") * 2; }".to_owned(),
            1 => format!("fn(n) {{ return (n + {}); }}", self.expr(1)),
            2 => "fn(n) { return [n, name(n)]; }".to_owned(),
            _ => format!("fn(n) {{ if (n > {}) {{ return n; }} return 0; }}", self.rng.gen_range(0i64..=5)),
        }
    }

    fn block(&mut self, depth: usize, in_loop: bool) {
        let n = self.rng.gen_range(1..=3usize);
        let vars_before = self.vars.len();
        for _ in 0..n {
            self.stmt(depth, in_loop);
        }
        // Names defined in a block stay live (two-level scoping), but
        // conditionally-defined names make generated programs mostly
        // die of "undefined variable" noise — keep later statements
        // referencing only unconditionally-defined names.
        self.vars.truncate(vars_before);
    }

    fn stmt(&mut self, depth: usize, in_loop: bool) {
        match self.rng.gen_range(0..20u32) {
            0..=3 => {
                let name = self.fresh_var();
                let init = self.expr(2);
                self.out.push_str(&format!("let {name} = {init};\n"));
                self.vars.push(name);
            }
            4 | 5 => {
                if let Some(name) = self.pick_var() {
                    let value = self.expr(2);
                    self.out.push_str(&format!("{name} = {value};\n"));
                }
            }
            6 | 7 => {
                let c = self.cond(1);
                self.out.push_str(&format!("if {c} {{\n"));
                if depth > 0 {
                    self.block(depth - 1, in_loop);
                }
                if self.rng.gen_bool(0.4) {
                    self.out.push_str("} else {\n");
                    if depth > 0 {
                        self.block(depth - 1, in_loop);
                    }
                }
                self.out.push_str("}\n");
            }
            8 | 9 => {
                let counter = self.fresh_var();
                let bound = self.rng.gen_range(0i64..=6);
                self.out
                    .push_str(&format!("let {counter} = 0;\nwhile {counter} < {bound} {{\n{counter} = {counter} + 1;\n"));
                if depth > 0 {
                    self.block(depth - 1, true);
                }
                self.out.push_str("}\n");
            }
            10 | 11 => {
                let var = self.fresh_var();
                let iter = match self.rng.gen_range(0..3u32) {
                    0 => format!("range({})", self.rng.gen_range(0i64..=5)),
                    1 => format!("[{}, {}]", self.expr(1), self.expr(1)),
                    _ => "children(0)".to_owned(),
                };
                self.out.push_str(&format!("for {var} in {iter} {{\n"));
                self.vars.push(var);
                if depth > 0 {
                    self.block(depth - 1, true);
                }
                self.vars.pop();
                self.out.push_str("}\n");
            }
            12 => {
                // break/continue — occasionally outside a loop, which
                // must error identically.
                if in_loop || self.rng.gen_bool(0.1) {
                    let kw = if self.rng.gen_bool(0.5) { "break" } else { "continue" };
                    self.out.push_str(&format!("{kw};\n"));
                }
            }
            13 | 14 => {
                let a = self.expr(2);
                let b = self.expr(1);
                self.out.push_str(&format!("print({a}, {b});\n"));
            }
            15 => {
                let cb = self.callback();
                self.out.push_str(&format!("visit({cb});\n"));
            }
            16 => {
                let cb = self.callback();
                let name = self.fresh_var();
                self.out
                    .push_str(&format!("let {name} = map_nodes({cb});\n"));
                self.vars.push(name);
            }
            17 => {
                let cb = self.callback();
                let metric = format!("m{}", self.rng.gen_range(0..3u32));
                self.out
                    .push_str(&format!("derive(\"{metric}\", {cb});\n"));
            }
            _ => {
                let e = self.expr(2);
                self.out.push_str(&format!("{e};\n"));
            }
        }
    }

    fn pick_var(&mut self) -> Option<String> {
        if self.vars.is_empty() {
            None
        } else {
            Some(self.vars[self.rng.gen_range(0..self.vars.len())].clone())
        }
    }

    fn fn_def(&mut self, i: usize) {
        let arity = self.rng.gen_range(0..=2usize);
        let params: Vec<String> = (0..arity).map(|p| format!("p{p}")).collect();
        let name = format!("fx{i}");
        self.out
            .push_str(&format!("fn {name}({}) {{\n", params.join(", ")));
        let saved = std::mem::replace(&mut self.vars, params);
        let body = self.rng.gen_range(1..=2usize);
        for _ in 0..body {
            self.stmt(1, false);
        }
        let ret = self.expr(1);
        self.out.push_str(&format!("return {ret};\n}}\n"));
        self.vars = saved;
        self.funcs.push((name, arity));
    }

    fn program(mut self) -> String {
        for i in 0..self.rng.gen_range(0..=2usize) {
            self.fn_def(i);
        }
        let n = self.rng.gen_range(2..=7usize);
        for _ in 0..n {
            self.stmt(2, false);
        }
        // Force every surviving binding into stdout so latent state
        // differences become output differences.
        let vars = self.vars.clone();
        for v in vars {
            self.out.push_str(&format!("print({v});\n"));
        }
        self.out
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

#[test]
fn generated_programs_are_engine_identical() {
    let seed = env_u64("EV_TEST_SEED").unwrap_or(0xE55C_21F7_0D1F_F00D);
    let cases = env_u64("EV_TEST_CASES").unwrap_or(300);
    let mut root = Rng::new(seed);
    for case in 0..cases {
        let src = Gen::new(root.split()).program();
        // A small budget keeps generated runaway loops cheap while
        // still exercising exhaustion on both engines.
        let reference = exec(&src, ScriptEngine::Reference, None, 20_000);
        let vm = exec(&src, ScriptEngine::Bytecode, None, 20_000);
        let header = format!(
            "generated case {case} (replay with EV_TEST_SEED={seed:#018x})"
        );
        compare(&format!("{header}, bytecode"), &src, &reference, &vm);
        for threads in [2usize, 8] {
            let par = exec(&src, ScriptEngine::Bytecode, Some(threads), 20_000);
            compare(
                &format!("{header}, bytecode {threads} threads"),
                &src,
                &reference,
                &par,
            );
        }
    }
}

//! The script host: binds EVscript to an `ev_core::Profile`.

use crate::compile::compile;
use crate::interp::{Interpreter, DEFAULT_STEP_LIMIT};
use crate::parser::parse;
use crate::ScriptError;
use ev_core::{
    FrameRef, MetricDescriptor, MetricId, MetricKind, MetricUnit, NodeId, Profile, StringId,
};
use ev_par::ExecPolicy;

/// What a script run produced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScriptOutput {
    /// Everything the script `print`ed, newline-separated.
    pub stdout: String,
    /// Interpreter steps charged (statements + expressions + loop
    /// iterations) — identical across engines for the same program.
    pub steps: u64,
}

/// Which execution engine runs the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptEngine {
    /// Compile to bytecode and run on the VM — the production path.
    Bytecode,
    /// The retained tree-walking interpreter: the clarity-first
    /// differential reference (mirroring `parse_reference` /
    /// `inflate_reference`) that tests and benches pin the VM against.
    Reference,
}

/// Runs EVscript programs against a profile — the programming pane of
/// the paper's GUI (§V-B).
///
/// Node handles exposed to scripts are the profile's node indices
/// (creation order, parents before children; 0 is the root).
///
/// Scripts compile to bytecode and run on the VM by default; the
/// tree-walking interpreter is retained as the differential reference
/// ([`ScriptEngine`]). Both engines produce identical output, profile
/// mutations, errors, and step counts for every program. Under the
/// bytecode engine, side-effect-free `map_nodes`/`derive` callbacks fan
/// out over `ev-par` per [`ScriptHost::with_policy`], with results
/// bit-identical at any thread count.
///
/// # Examples
///
/// ```
/// use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};
/// use ev_script::ScriptHost;
///
/// let mut p = Profile::new("demo");
/// let cycles = p.add_metric(MetricDescriptor::new(
///     "cycles", MetricUnit::Cycles, MetricKind::Exclusive,
/// ));
/// let insts = p.add_metric(MetricDescriptor::new(
///     "instructions", MetricUnit::Count, MetricKind::Exclusive,
/// ));
/// p.add_sample(&[Frame::function("hot")], &[(cycles, 900.0), (insts, 300.0)]);
///
/// ScriptHost::new(&mut p)
///     .run(r#"
///         derive("cpi", fn(n) {
///             let i = value(n, "instructions");
///             if i == 0 { return 0; }
///             return value(n, "cycles") / i;
///         });
///     "#)
///     .unwrap();
/// let cpi = p.metric_by_name("cpi").unwrap();
/// assert_eq!(p.total(cpi), 3.0);
/// ```
#[derive(Debug)]
pub struct ScriptHost<'p> {
    profile: &'p mut Profile,
    step_limit: u64,
    engine: ScriptEngine,
    policy: ExecPolicy,
    last_steps: u64,
    last_stdout: String,
}

impl<'p> ScriptHost<'p> {
    /// Creates a host over `profile` that runs scripts on the bytecode
    /// VM; parallel callback fan-out is off until
    /// [`with_policy`](Self::with_policy) allows it.
    pub fn new(profile: &'p mut Profile) -> ScriptHost<'p> {
        ScriptHost {
            profile,
            step_limit: DEFAULT_STEP_LIMIT,
            engine: ScriptEngine::Bytecode,
            policy: ExecPolicy::SEQUENTIAL,
            last_steps: 0,
            last_stdout: String::new(),
        }
    }

    /// Overrides the runaway-loop step budget.
    pub fn with_step_limit(mut self, limit: u64) -> ScriptHost<'p> {
        self.step_limit = limit;
        self
    }

    /// Pins the execution engine: tests and benches select the
    /// reference interpreter as the VM's differential oracle.
    pub fn with_engine(mut self, engine: ScriptEngine) -> ScriptHost<'p> {
        self.engine = engine;
        self
    }

    /// Allows the bytecode engine to fan side-effect-free node
    /// callbacks out over `ev-par` under `policy`. Output is
    /// bit-identical at any thread count; the reference engine ignores
    /// the policy and always runs inline.
    pub fn with_policy(mut self, policy: ExecPolicy) -> ScriptHost<'p> {
        self.policy = policy;
        self
    }

    /// Steps charged by the most recent [`run`](Self::run), including
    /// failed ones (`step_limit + 1` exactly when it died of budget
    /// exhaustion). Lets differential tests compare engines on the
    /// error path, where no [`ScriptOutput`] is returned.
    pub fn last_steps(&self) -> u64 {
        self.last_steps
    }

    /// Stdout accumulated by the most recent [`run`](Self::run) up to
    /// the point it returned — the partial transcript on failure.
    pub fn last_stdout(&self) -> &str {
        &self.last_stdout
    }

    /// Parses and executes `source`, mutating the profile in place.
    ///
    /// # Errors
    ///
    /// Returns the first lex, parse, or runtime error with its line.
    /// Errors (and step accounting) are identical across engines. On the
    /// bytecode engine, a program whose static tables exceed the
    /// bytecode's 16-bit indices fails before it runs with a "program
    /// too large" error.
    pub fn run(&mut self, source: &str) -> Result<ScriptOutput, ScriptError> {
        let program = parse(source)?;
        match self.engine {
            ScriptEngine::Reference => self.run_reference(&program),
            ScriptEngine::Bytecode => self.run_vm(&compile(&program)?),
        }
    }

    fn run_reference(
        &mut self,
        program: &[crate::ast::Stmt],
    ) -> Result<ScriptOutput, ScriptError> {
        let mut interp = Interpreter::new(Binding::Write(self.profile), self.step_limit);
        let result = interp.run(program);
        self.last_steps = interp.steps();
        self.last_stdout = std::mem::take(&mut interp.stdout);
        result?;
        Ok(ScriptOutput {
            stdout: self.last_stdout.clone(),
            steps: self.last_steps,
        })
    }

    fn run_vm(&mut self, chunk: &crate::compile::Chunk) -> Result<ScriptOutput, ScriptError> {
        ev_trace::counter("script.chunks_compiled").inc();
        let mut vm = crate::vm::Vm::new(
            Binding::Write(self.profile),
            chunk,
            self.step_limit,
            self.policy,
        );
        let result = vm.run();
        self.last_steps = vm.steps();
        self.last_stdout = std::mem::take(&mut vm.stdout);
        result?;
        Ok(ScriptOutput {
            stdout: self.last_stdout.clone(),
            steps: self.last_steps,
        })
    }
}

/// Compiles `source` and renders the chunk's disassembly (golden
/// fixtures and debugging).
///
/// # Errors
///
/// Returns the parse error, or "program too large" when the program's
/// static tables overflow the bytecode's index widths.
pub fn disassemble_source(source: &str) -> Result<String, ScriptError> {
    let program = parse(source)?;
    Ok(crate::compile::disassemble(&compile(&program)?))
}

// ---- profile binding -----------------------------------------------

/// The profile a script run reads and writes: writable on the
/// caller's thread, read-only in the VM's parallel callback workers,
/// where many threads read one profile. The purity gate keeps workers
/// off the writes; one that got there would get an error, which sends
/// the run through the inline fallback.
pub(crate) enum Binding<'p> {
    /// The caller's thread: reads and writes.
    Write(&'p mut Profile),
    /// A parallel callback worker: reads only, and never fans out.
    Read(&'p Profile),
}

impl Binding<'_> {
    fn profile(&self) -> &Profile {
        match self {
            Binding::Write(profile) => profile,
            Binding::Read(profile) => profile,
        }
    }

    fn profile_mut(&mut self) -> Result<&mut Profile, String> {
        match self {
            Binding::Write(profile) => Ok(profile),
            Binding::Read(_) => Err("read-only profile view".to_owned()),
        }
    }

    /// The profile the VM's parallel callback workers share, or `None`
    /// inside a worker, whose callbacks stay inline.
    pub(crate) fn shared(&self) -> Option<&Profile> {
        match self {
            Binding::Write(profile) => Some(profile),
            Binding::Read(_) => None,
        }
    }

    fn node(&self, node: usize) -> Option<NodeId> {
        (node < self.profile().node_count()).then(|| NodeId::from_index(node))
    }

    fn metric(&self, name: &str) -> Result<MetricId, String> {
        self.profile()
            .metric_by_name(name)
            .ok_or_else(|| format!("unknown metric {name:?}"))
    }

    /// One of a node's frame strings.
    fn frame_string(&self, node: usize, field: fn(FrameRef) -> StringId) -> Option<String> {
        let profile = self.profile();
        let frame = profile.node(self.node(node)?).frame();
        Some(profile.strings().resolve(field(frame)).to_owned())
    }

    /// Number of nodes (node handles are `0..count`).
    pub(crate) fn node_count(&self) -> usize {
        self.profile().node_count()
    }

    /// Function/object name of a node.
    pub(crate) fn node_name(&self, node: usize) -> Option<String> {
        self.frame_string(node, |f| f.name)
    }

    /// Source file of a node ("" if unknown).
    pub(crate) fn node_file(&self, node: usize) -> Option<String> {
        self.frame_string(node, |f| f.file)
    }

    /// Source line of a node (0 if unknown).
    pub(crate) fn node_line(&self, node: usize) -> Option<u32> {
        Some(self.profile().node(self.node(node)?).frame().line)
    }

    /// Load module of a node ("" if unknown).
    pub(crate) fn node_module(&self, node: usize) -> Option<String> {
        self.frame_string(node, |f| f.module)
    }

    /// Parent handle, `None` for the root (or invalid handles).
    pub(crate) fn node_parent(&self, node: usize) -> Option<usize> {
        self.profile()
            .node(self.node(node)?)
            .parent()
            .map(NodeId::index)
    }

    /// Child handles.
    pub(crate) fn node_children(&self, node: usize) -> Option<Vec<usize>> {
        let children = self.profile().node(self.node(node)?).children();
        Some(children.iter().map(|c| c.index()).collect())
    }

    /// Value of the named metric at a node.
    pub(crate) fn get_value(&self, node: usize, metric: &str) -> Result<f64, String> {
        let id = self.metric(metric)?;
        let node = self.node(node).ok_or("node out of range")?;
        Ok(self.profile().value(node, id))
    }

    /// Overwrites the named metric at a node.
    pub(crate) fn set_value(
        &mut self,
        node: usize,
        metric: &str,
        value: f64,
    ) -> Result<(), String> {
        let id = self.metric(metric)?;
        let node = self.node(node).ok_or("node out of range")?;
        self.profile_mut()?.set_value(node, id, value);
        Ok(())
    }

    /// Registers a metric channel (idempotent).
    pub(crate) fn add_metric(&mut self, name: &str) -> Result<(), String> {
        let profile = self.profile_mut()?;
        if profile.metric_by_name(name).is_none() {
            profile.add_metric(
                MetricDescriptor::new(name, MetricUnit::Count, MetricKind::Point)
                    .with_description("script-derived metric"),
            );
        }
        Ok(())
    }

    /// Sum of the named metric over all nodes.
    pub(crate) fn total(&self, metric: &str) -> Result<f64, String> {
        let id = self.metric(metric)?;
        Ok(self.profile().total(id))
    }

    /// Names of all registered metrics.
    pub(crate) fn metric_names(&self) -> Vec<String> {
        self.profile()
            .metrics()
            .iter()
            .map(|m| m.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::Frame;

    fn profile() -> Profile {
        let mut p = Profile::new("t");
        let cpu = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[Frame::function("main"), Frame::function("hot").with_source("hot.c", 9)],
            &[(cpu, 90.0)],
        );
        p.add_sample(&[Frame::function("main"), Frame::function("cold")], &[(cpu, 10.0)]);
        p
    }

    fn run(p: &mut Profile, src: &str) -> ScriptOutput {
        ScriptHost::new(p).run(src).unwrap()
    }

    #[test]
    fn arithmetic_and_print() {
        let mut p = profile();
        let out = run(&mut p, "print(1 + 2 * 3, \"and\", 10 / 4);");
        assert_eq!(out.stdout, "7 and 2.5\n");
    }

    #[test]
    fn variables_loops_functions() {
        let mut p = profile();
        let out = run(
            &mut p,
            r#"
            fn fib(n) {
                if n < 2 { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            let sum = 0;
            for i in range(5) { sum = sum + fib(i); }
            let j = 0;
            while j < 3 { j = j + 1; }
            print(sum, j);
        "#,
        );
        assert_eq!(out.stdout, "7 3\n");
    }

    #[test]
    fn lists_and_indexing() {
        let mut p = profile();
        let out = run(
            &mut p,
            r#"
            let xs = [10, 20, 30];
            xs[1] = 25;
            push(xs, 40);
            print(xs, len(xs), xs[3]);
        "#,
        );
        assert_eq!(out.stdout, "[10, 25, 30, 40] 4 40\n");
    }

    #[test]
    fn profile_reads() {
        let mut p = profile();
        let out = run(
            &mut p,
            r#"
            print(node_count(), total("cpu"));
            let hot = 0;
            visit(fn(n) {
                if name(n) == "hot" { hot = n; }
            });
            print(name(hot), value(hot, "cpu"), file(hot), line(hot));
            print(name(parent(hot)));
        "#,
        );
        assert_eq!(out.stdout, "4 100\nhot 90 hot.c 9\nmain\n");
    }

    #[test]
    fn derive_creates_metric() {
        let mut p = profile();
        run(
            &mut p,
            r#"derive("share", fn(n) { return value(n, "cpu") / total("cpu"); });"#,
        );
        let share = p.metric_by_name("share").unwrap();
        let hot = p
            .node_ids()
            .find(|&id| p.resolve_frame(id).name == "hot")
            .unwrap();
        assert_eq!(p.value(hot, share), 0.9);
    }

    #[test]
    fn visit_can_mutate_values() {
        let mut p = profile();
        run(
            &mut p,
            r#"
            add_metric("doubled");
            visit(fn(n) { set_value(n, "doubled", value(n, "cpu") * 2); });
        "#,
        );
        let d = p.metric_by_name("doubled").unwrap();
        assert_eq!(p.total(d), 200.0);
    }

    #[test]
    fn metrics_listing() {
        let mut p = profile();
        let out = run(&mut p, "print(metrics());");
        assert_eq!(out.stdout, "[cpu]\n");
    }

    #[test]
    fn children_traversal() {
        let mut p = profile();
        let out = run(
            &mut p,
            r#"
            let names = [];
            for c in children(0) {
                for g in children(c) { push(names, name(g)); }
            }
            print(names);
        "#,
        );
        assert_eq!(out.stdout, "[hot, cold]\n");
    }

    #[test]
    fn runtime_errors() {
        let mut p = profile();
        let mut host = ScriptHost::new(&mut p);
        assert!(host.run("print(1 / 0);").is_err());
        assert!(host.run("print(undefined_var);").is_err());
        assert!(host.run("undefined_var = 1;").is_err());
        assert!(host.run("print(value(0, \"nope\"));").is_err());
        assert!(host.run("print(value(999, \"cpu\"));").is_err());
        assert!(host.run("let xs = [1]; print(xs[5]);").is_err());
        assert!(host.run("if 1 { print(1); }").is_err(), "non-bool condition");
        assert!(host.run("print(\"a\" - \"b\");").is_err());
        assert!(host.run("let f = 1; f();").is_err());
    }

    #[test]
    fn break_and_continue() {
        let mut p = profile();
        let out = run(
            &mut p,
            r#"
            let collected = [];
            for i in range(10) {
                if i % 2 == 0 { continue; }
                if i > 6 { break; }
                push(collected, i);
            }
            let j = 0;
            while true {
                j = j + 1;
                if j == 4 { break; }
            }
            print(collected, j);
        "#,
        );
        assert_eq!(out.stdout, "[1, 3, 5] 4
");
    }

    #[test]
    fn break_outside_loop_is_error() {
        let mut p = profile();
        let mut host = ScriptHost::new(&mut p);
        assert!(host.run("break;").is_err());
        assert!(host.run("continue;").is_err());
        // break inside a function called from a loop does not escape the
        // function boundary.
        assert!(host
            .run("fn f() { break; } for i in range(3) { f(); }")
            .is_err());
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut p = profile();
        let mut host = ScriptHost::new(&mut p).with_step_limit(10_000);
        let err = host.run("while true { }").unwrap_err();
        assert!(err.message.contains("step limit"), "{err}");
    }

    #[test]
    fn deep_recursion_is_cut_off() {
        let mut p = profile();
        let mut host = ScriptHost::new(&mut p);
        let err = host
            .run("fn f(n) { return f(n + 1); } f(0);")
            .unwrap_err();
        assert!(err.message.contains("stack"), "{err}");
    }

    #[test]
    fn too_large_program_is_an_error_not_a_walk() {
        let source = ev_gen::scripts::too_large(70_000, 63, 120);
        let mut p = profile();
        let before = p.clone();
        let err = ScriptHost::new(&mut p).run(&source).unwrap_err();
        assert!(err.message.starts_with("program too large"), "{err}");
        assert_eq!(err.line, 0);
        assert_eq!(p, before, "nothing ran");
        assert_eq!(disassemble_source(&source).unwrap_err(), err);
        // Under the limit, the same shape compiles and runs on the VM.
        let out = ScriptHost::new(&mut p)
            .run(&ev_gen::scripts::too_large(1_000, 63, 120))
            .unwrap();
        assert_eq!(out.stdout, format!("1000 {}\n", 63 * (119 * 120 / 2)));
    }

    #[test]
    fn error_lines_are_reported() {
        let mut p = profile();
        let err = ScriptHost::new(&mut p)
            .run("let a = 1;\nlet b = 2;\nprint(1 / 0);")
            .unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn merge_like_analysis_example() {
        // The paper's example: "users can decide to merge two nodes if
        // they are mapped to the same source code line" — here a script
        // accumulates values per source line.
        let mut p = Profile::new("merge");
        let cpu = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[Frame::function("a").with_source("x.c", 5)],
            &[(cpu, 3.0)],
        );
        p.add_sample(
            &[Frame::function("b").with_source("x.c", 5)],
            &[(cpu, 4.0)],
        );
        let out = run(
            &mut p,
            r#"
            let by_line = 0;
            visit(fn(n) {
                if file(n) == "x.c" && line(n) == 5 {
                    by_line = by_line + value(n, "cpu");
                }
            });
            print("x.c:5 =", by_line);
        "#,
        );
        assert_eq!(out.stdout, "x.c:5 = 7\n");
    }

    #[test]
    fn both_engines_agree_on_output_and_steps() {
        let src = r#"
            let names = [];
            visit(fn(n) { push(names, name(n)); });
            derive("double", fn(n) { return value(n, "cpu") * 2; });
            print(names, total("double"));
        "#;
        let mut p1 = profile();
        let mut h1 = ScriptHost::new(&mut p1).with_engine(ScriptEngine::Bytecode);
        let out_vm = h1.run(src).unwrap();
        let mut p2 = profile();
        let mut h2 = ScriptHost::new(&mut p2).with_engine(ScriptEngine::Reference);
        let out_ref = h2.run(src).unwrap();
        assert_eq!(out_vm, out_ref);
        assert_eq!(p1, p2);
    }

    /// `pure=` flag per proto, in listing order, parsed from the
    /// disassembly (proto 0 is the top level).
    fn proto_purity(source: &str) -> Vec<bool> {
        disassemble_source(source)
            .expect("compiles")
            .lines()
            .filter(|l| l.starts_with("proto "))
            .map(|l| l.contains("pure=true"))
            .collect()
    }

    #[test]
    fn purity_extends_through_local_helpers() {
        // The callback's only calls reach its own local `fn`s (one of
        // which recurses by self-application): every proto except the
        // top level is pure, so the callback is parallel-eligible.
        let purity = proto_purity(
            r#"
            map_nodes(fn(n) {
                fn damp(v, k, self) {
                    if k < 1 { return v; }
                    return self(v * 0.5, k - 1, self);
                }
                return damp(n, 4, damp);
            });
            "#,
        );
        assert_eq!(purity, [false, true, true]);
    }

    #[test]
    fn global_read_makes_callback_impure() {
        let purity = proto_purity(
            r#"
            let t = 2;
            map_nodes(fn(n) { return n * t; });
            "#,
        );
        assert_eq!(purity, [false, false]);
    }

    #[test]
    fn impure_helper_poisons_callback() {
        // The helper prints, so `MakeFunc` of it poisons the callback
        // even though the callback itself touches no impure op.
        let purity = proto_purity(
            r#"
            map_nodes(fn(n) {
                fn shout(v) { print(v); return v; }
                return shout(n);
            });
            "#,
        );
        assert_eq!(purity, [false, false, false]);
    }

    #[test]
    fn local_helper_callback_fans_out() {
        // End to end: a callback built from local helpers takes the
        // parallel path (the `script.par_visits` counter advances by
        // at least the node count) and the output matches sequential.
        let src = r#"
            let scores = map_nodes(fn(n) {
                fn damp(v, k, self) {
                    if k < 1 { return v; }
                    return self(v * 0.5 + 1, k - 1, self);
                }
                return damp(n, 3, damp);
            });
            let acc = 0;
            for s in scores { acc = acc + s; }
            print(acc);
        "#;
        let mut p_seq = profile();
        let expected = ScriptHost::new(&mut p_seq)
            .with_engine(ScriptEngine::Bytecode)
            .run(src)
            .unwrap();
        let before = ev_trace::counter_value("script.par_visits");
        let mut p_par = profile();
        let out = ScriptHost::new(&mut p_par)
            .with_engine(ScriptEngine::Bytecode)
            .with_policy(ExecPolicy::with_threads(2))
            .run(src)
            .unwrap();
        assert_eq!(out, expected);
        let visited = ev_trace::counter_value("script.par_visits") - before;
        assert!(
            visited >= p_par.node_count() as u64,
            "parallel path never engaged (par_visits delta {visited})"
        );
    }

    #[test]
    fn parallel_policy_matches_sequential() {
        let src = r#"
            let vals = map_nodes(fn(n) { return value(n, "cpu") + 1; });
            derive("sq", fn(n) { let v = value(n, "cpu"); return v * v; });
            print(vals, total("sq"));
        "#;
        let mut base = profile();
        let expected = ScriptHost::new(&mut base)
            .with_engine(ScriptEngine::Bytecode)
            .run(src)
            .unwrap();
        for threads in [1, 2, 8] {
            let mut p = profile();
            let out = ScriptHost::new(&mut p)
                .with_engine(ScriptEngine::Bytecode)
                .with_policy(ExecPolicy::with_threads(threads))
                .run(src)
                .unwrap();
            assert_eq!(out, expected, "threads {threads}");
            assert_eq!(p, base, "threads {threads}");
        }
    }
}

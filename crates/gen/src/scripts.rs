//! Deterministic EVscript workloads for the script-engine benchmark.
//!
//! Three programs spanning the engine's cost centers: a hot arithmetic
//! loop (pure dispatch + slot access), a CCT fold over a real profile
//! (host-call traffic + a parallel-eligible `map_nodes` callback), and
//! string-heavy formatting (allocation + interned string constants).
//! All three are pure functions of their parameters, so the VM and the
//! reference interpreter can be timed on byte-identical sources.
//! [`too_large`] is the hostile counterpart: a program no engine may run.

/// A hot arithmetic loop: `iters` iterations of mixed add/mul/mod on
/// loop-carried locals. Dominated by dispatch, scope access, and step
/// accounting — the paths the bytecode VM exists to shorten.
pub fn hot_loop(iters: usize) -> String {
    format!(
        r#"let acc = 0;
let i = 0;
while i < {iters} {{
    acc = acc + i * 3 - i % 7;
    if acc > 1000000 {{ acc = acc - 999983; }}
    i = i + 1;
}}
print(acc);
"#
    )
}

/// A CCT fold: a pure `map_nodes` callback scores every node by
/// folding `metric` through a locally-defined recursive damping
/// helper, then a top-level loop sums the scores. Neither the callback
/// nor its helper touches a global, so the purity scan proves them
/// side-effect-free and the bytecode engine may fan the visit out over
/// `ev-par`; the top-level fold pins the merge order either way.
///
/// The helper recurses by passing itself as an argument: a local `fn`
/// is a binding in the *defining* frame, invisible from its own frame
/// under two-level scoping, so self-application is how a
/// callback-local function recurses. The call-dense shape this
/// produces is also where the engines diverge most: the reference
/// interpreter allocates a fresh hash-map scope per call, the VM
/// reuses one slot arena.
pub fn cct_fold(metric: &str) -> String {
    format!(
        r#"let scores = map_nodes(fn(n) {{
    fn damp(v, k, self) {{
        if k < 1 {{ return v; }}
        return self(v * 0.5 + 1, k - 1, self) * 1.0625;
    }}
    let v = value(n, {metric:?});
    return damp(v % 8192, 12, damp) + v * 0.001;
}});
let acc = 0;
for s in scores {{
    acc = acc + s;
}}
print(len(scores), floor(acc));
"#
    )
}

/// String-heavy formatting: `rounds` iterations of number-to-string
/// conversion and concatenation, with a periodic reset to bound the
/// working string. Exercises string interning, `Rc<String>` traffic,
/// and the concat path of `+`.
pub fn string_fmt(rounds: usize) -> String {
    format!(
        r#"let out = "";
let total_len = 0;
let i = 0;
while i < {rounds} {{
    out = out + str(i) + ":" + str(i * 2) + ";";
    if len(out) > 4096 {{
        total_len = total_len + len(out);
        out = "";
    }}
    i = i + 1;
}}
print(total_len + len(out));
"#
    )
}

/// A program too large for the bytecode's 16-bit tables: a list literal
/// of `constants` distinct numbers, then `calls` recursive calls that
/// each return a `terms`-term `+` chain. A tree-walking interpreter
/// recurses once per call and once per chain term, so at 70,000
/// constants, 63 calls and 120 terms it overflows a 2 MiB thread; the
/// host must reject it before running anything.
pub fn too_large(constants: usize, calls: usize, terms: usize) -> String {
    let numbers: Vec<String> = (0..constants).map(|i| i.to_string()).collect();
    let chain: String = (1..terms).map(|i| format!(" + {i}")).collect();
    format!(
        r#"let constants = [{}];
fn chain(n) {{
    if n < 1 {{ return 0; }}
    return chain(n - 1){chain};
}}
print(len(constants), chain({calls}));
"#,
        numbers.join(", ")
    )
}

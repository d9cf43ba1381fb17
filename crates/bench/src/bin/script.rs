//! The script-engine benchmark: EVscript's bytecode VM against the
//! retained tree-walking reference interpreter, writing
//! `BENCH_script.json` at the repo root so the perf trajectory is
//! machine-readable across PRs.
//!
//! Also the correctness gate for the fast path: every workload first
//! runs on both engines and the outputs, step counts, and resulting
//! profiles must be identical before either engine is timed. The same
//! check runs the VM under a parallel policy, where `map_nodes`
//! callbacks fan out over `ev-par` and must stay bit-identical.
//!
//! The report also carries the thread-scaling rows of the engine's
//! two analysis passes on `ev-par`: the VM's `map_nodes` fan-out, and
//! `aggregate_with` over four distinct profiles the size of the
//! `cct_fold` fixture, each pinned to 1 thread against `auto()`.
//!
//! Usage: `script [--quick]` — `--quick` (used by `scripts/ci.sh`)
//! runs fewer samples on smaller workloads and relaxes the speedup
//! gate to 2× to tolerate noisy CI hosts.
//!
//! The speedup gate runs on the *largest* workload only — the CCT fold
//! over the ~7 MiB synthetic profile, where per-run fixed costs
//! (parse, compile, host setup) are fully amortized.

use ev_analysis::aggregate_with;
use ev_bench::timer::group;
use ev_formats::pprof;
use ev_gen::scripts::{cct_fold, hot_loop, string_fmt};
use ev_gen::synthetic::pprof_with_size;
use ev_json::Value;
use ev_par::ExecPolicy;
use ev_script::{ScriptEngine, ScriptHost, ScriptOutput};
use ev_core::Profile;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Times `a` and `b` interleaved round by round and returns the
/// minimum seconds of each (same rationale as the ingest bench: the
/// gate compares a ratio, and alternating samples makes host-load
/// drift hit both sides alike).
fn minsecs_interleaved(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds.max(1) {
        let t = std::time::Instant::now();
        a();
        best_a = best_a.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        b();
        best_b = best_b.min(t.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

/// One timed run: parse + compile + execute, the end-to-end cost of
/// the scripting pane. A huge step budget keeps the accounting path
/// hot without ever tripping.
fn run(profile: &mut Profile, src: &str, engine: ScriptEngine, policy: ExecPolicy) -> ScriptOutput {
    ScriptHost::new(profile)
        .with_engine(engine)
        .with_policy(policy)
        .with_step_limit(1 << 40)
        .run(src)
        .expect("benchmark workload runs clean")
}

struct Workload {
    name: &'static str,
    source: String,
    /// The profile the script runs against (none of the workloads
    /// mutate it, so one instance serves every sample).
    profile: Profile,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples = if quick { 5 } else { 10 };
    let min_speedup = if quick { 2.0 } else { 3.0 };

    group("script: workloads");
    let fixture_bytes = if quick { 1 << 20 } else { 7 << 20 };
    let gz = pprof_with_size(fixture_bytes, 0x5C21);
    let fold_profile = pprof::parse(&gz).expect("synthetic fixture parses");
    drop(gz);
    println!(
        "{:<44} cct fixture: {} nodes, target {} MiB",
        "",
        fold_profile.node_count(),
        fixture_bytes >> 20
    );
    let workloads = vec![
        Workload {
            name: "hot_loop",
            source: hot_loop(if quick { 40_000 } else { 300_000 }),
            profile: Profile::new("hot_loop"),
        },
        Workload {
            name: "string_fmt",
            source: string_fmt(if quick { 10_000 } else { 60_000 }),
            profile: Profile::new("string_fmt"),
        },
        Workload {
            name: "cct_fold",
            source: cct_fold("cpu"),
            profile: fold_profile,
        },
    ];

    // Correctness pre-gate: both engines, plus the VM under parallel
    // policies, must agree on output, steps, and the resulting profile
    // before anything is timed.
    group("script: differential pre-gate");
    for w in &workloads {
        let mut p_ref = w.profile.clone();
        let out_ref = run(&mut p_ref, &w.source, ScriptEngine::Reference, ExecPolicy::SEQUENTIAL);
        let mut p_vm = w.profile.clone();
        let out_vm = run(&mut p_vm, &w.source, ScriptEngine::Bytecode, ExecPolicy::SEQUENTIAL);
        assert_eq!(out_vm, out_ref, "{}: engines disagree", w.name);
        assert_eq!(p_vm, p_ref, "{}: profiles diverged", w.name);
        for threads in [2usize, 8] {
            let mut p_par = w.profile.clone();
            let out_par = run(
                &mut p_par,
                &w.source,
                ScriptEngine::Bytecode,
                ExecPolicy::with_threads(threads),
            );
            assert_eq!(out_par, out_ref, "{}: {threads}-thread run diverged", w.name);
            assert_eq!(p_par, p_ref, "{}: {threads}-thread profile diverged", w.name);
        }
        println!(
            "{:<44} {:<12} {:>12} steps  ok (vm == reference == parallel)",
            "", w.name, out_ref.steps
        );
    }

    group("script: bytecode VM vs reference interpreter");
    let mut entries: Vec<Value> = Vec::new();
    let mut gate_speedup = f64::NAN;
    let mut gate_name = "";
    let mut gate_steps = 0u64;
    for w in &workloads {
        // The workloads never mutate the profile (asserted by the
        // pre-gate's profile equality), so each side gets its own
        // clone and the closures don't contend for one borrow.
        let mut p_vm = w.profile.clone();
        let mut p_ref = w.profile.clone();
        let steps = run(
            &mut p_vm,
            &w.source,
            ScriptEngine::Bytecode,
            ExecPolicy::SEQUENTIAL,
        )
        .steps;
        let (vm_secs, ref_secs) = minsecs_interleaved(
            samples,
            || {
                std::hint::black_box(run(
                    &mut p_vm,
                    std::hint::black_box(&w.source),
                    ScriptEngine::Bytecode,
                    ExecPolicy::SEQUENTIAL,
                ));
            },
            || {
                std::hint::black_box(run(
                    &mut p_ref,
                    std::hint::black_box(&w.source),
                    ScriptEngine::Reference,
                    ExecPolicy::SEQUENTIAL,
                ));
            },
        );
        let speedup = ref_secs / vm_secs;
        // Gate on the largest workload only (most steps): see module
        // docs.
        if steps > gate_steps {
            gate_steps = steps;
            gate_speedup = speedup;
            gate_name = w.name;
        }
        println!(
            "{:<44} {:<12} vm {:>8.1} Msteps/s  reference {:>7.1} Msteps/s  speedup {speedup:.2}x",
            "",
            w.name,
            steps as f64 / vm_secs / 1e6,
            steps as f64 / ref_secs / 1e6,
        );
        entries.push(Value::object([
            ("name", Value::String(w.name.to_string())),
            ("steps", Value::Int(steps as i64)),
            ("vm_secs", Value::Float(vm_secs)),
            ("reference_secs", Value::Float(ref_secs)),
            ("vm_msteps_per_sec", Value::Float(steps as f64 / vm_secs / 1e6)),
            (
                "reference_msteps_per_sec",
                Value::Float(steps as f64 / ref_secs / 1e6),
            ),
            ("speedup", Value::Float(speedup)),
        ]));
    }

    // Parallel callback fan-out on the CCT fold: pinned 1 thread vs
    // auto(). Reported, not gated — auto() degrades to the inline walk
    // on 1-core hosts, where the ratio is ~1 by construction.
    group("script: parallel map_nodes fan-out (cct_fold)");
    let fold = workloads.last().expect("cct_fold present");
    let mut p_one = fold.profile.clone();
    let mut p_auto = fold.profile.clone();
    let auto_policy = ExecPolicy::auto();
    let (one_secs, auto_secs) = minsecs_interleaved(
        samples,
        || {
            std::hint::black_box(run(
                &mut p_one,
                std::hint::black_box(&fold.source),
                ScriptEngine::Bytecode,
                ExecPolicy::with_threads(1),
            ));
        },
        || {
            std::hint::black_box(run(
                &mut p_auto,
                std::hint::black_box(&fold.source),
                ScriptEngine::Bytecode,
                auto_policy,
            ));
        },
    );
    let par_ratio = one_secs / auto_secs;
    println!(
        "{:<44} 1 thread {:.4}s  auto ({} threads) {:.4}s  ({par_ratio:.2}x)",
        "", one_secs, auto_policy.threads, auto_secs,
    );

    // Multi-profile aggregation (paper §V-A-c), the other analysis pass
    // on `ev-par`: four distinct profiles of the fixture's size, pinned
    // 1 thread vs auto(), interleaved like the map_nodes row. Both
    // policies must agree bit for bit before anything is timed.
    // Reported, not gated, for the same reason.
    group("script: parallel aggregate (4 profiles)");
    let agg_inputs: Vec<Profile> = (1..=4u64)
        .map(|k| {
            pprof::parse(&pprof_with_size(fixture_bytes, 0x5C21 + k))
                .expect("synthetic aggregate input parses")
        })
        .collect();
    let agg_refs: Vec<&Profile> = agg_inputs.iter().collect();
    let aggregate = |policy: ExecPolicy| {
        aggregate_with(&agg_refs, "cpu", policy).expect("every input carries cpu")
    };
    let (one, auto) = (aggregate(ExecPolicy::SEQUENTIAL), aggregate(auto_policy));
    let agg_nodes = one.profile.node_count();
    assert_eq!(one.profile, auto.profile, "aggregate: auto() tree diverged");
    assert!(
        one.profile
            .node_ids()
            .all(|node| one.series(node) == auto.series(node)),
        "aggregate: auto() series diverged"
    );
    drop((one, auto));
    let (agg_one_secs, agg_auto_secs) = minsecs_interleaved(
        samples,
        || {
            std::hint::black_box(aggregate(ExecPolicy::with_threads(1)));
        },
        || {
            std::hint::black_box(aggregate(auto_policy));
        },
    );
    let agg_ratio = agg_one_secs / agg_auto_secs;
    println!(
        "{:<44} {} inputs -> {agg_nodes} nodes: 1 thread {:.4}s  auto ({} threads) {:.4}s  \
         ({agg_ratio:.2}x)",
        "",
        agg_refs.len(),
        agg_one_secs,
        auto_policy.threads,
        agg_auto_secs,
    );

    let report = Value::object([
        ("schema", Value::String("ev-bench-script/v1".to_string())),
        ("quick", Value::Bool(quick)),
        ("samples", Value::Int(samples as i64)),
        ("fixture_bytes", Value::Int(fixture_bytes as i64)),
        (
            "fixture_nodes",
            Value::Int(fold.profile.node_count() as i64),
        ),
        ("workloads", Value::Array(entries)),
        (
            "gate",
            Value::object([
                ("workload", Value::String(gate_name.to_string())),
                ("speedup", Value::Float(gate_speedup)),
                ("min_speedup", Value::Float(min_speedup)),
            ]),
        ),
        (
            "parallel",
            Value::object([
                ("workload", Value::String("cct_fold".to_string())),
                ("auto_threads", Value::Int(auto_policy.threads as i64)),
                ("one_thread_secs", Value::Float(one_secs)),
                ("auto_secs", Value::Float(auto_secs)),
                ("auto_vs_one_thread", Value::Float(par_ratio)),
            ]),
        ),
        (
            "aggregate",
            Value::object([
                ("profiles", Value::Int(agg_refs.len() as i64)),
                (
                    "input_nodes",
                    Value::Int(agg_refs.iter().map(|p| p.node_count() as i64).sum()),
                ),
                ("unified_nodes", Value::Int(agg_nodes as i64)),
                ("auto_threads", Value::Int(auto_policy.threads as i64)),
                ("one_thread_secs", Value::Float(agg_one_secs)),
                ("auto_secs", Value::Float(agg_auto_secs)),
                ("auto_vs_one_thread", Value::Float(agg_ratio)),
            ]),
        ),
    ]);
    let path = repo_root().join("BENCH_script.json");
    std::fs::write(&path, ev_json::to_string_pretty(&report)).expect("write BENCH_script.json");
    let text = std::fs::read_to_string(&path).expect("re-read BENCH_script.json");
    ev_json::parse(&text).expect("BENCH_script.json re-parses");
    println!("\nwrote {}", path.display());

    assert!(
        gate_speedup >= min_speedup,
        "bytecode VM is only {gate_speedup:.2}x the reference interpreter on \
         {gate_name} (need >= {min_speedup}x)"
    );
    println!(
        "OK: VM speedup {gate_speedup:.2}x on {gate_name} (gate {min_speedup}x)"
    );
}

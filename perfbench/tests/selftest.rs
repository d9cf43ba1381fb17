//! Toy-scale self-test of the benchmark: every workload runs in both
//! modes, passes its output checks, and emits exactly the metrics
//! `BENCHMARK.json` names, each with its declared unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ev_json::Value;
use perfbench::inputs::{small_spec, Scale};
use perfbench::open::{flame_value, OPEN_FLAME_LIMIT};
use perfbench::{run, Config, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    ev_json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`.
fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let spec = benchmark_json();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_owned())
        .collect();
    assert_eq!(workloads, WORKLOADS, "BENCHMARK.json workloads");
    for workload in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let cfg = Config {
                workload: workload.to_owned(),
                seed: 11,
                seconds: 0.3,
                trace,
                scale: Scale::toy(),
                trace_dir: None,
            };
            let report = run(&cfg).unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            assert!(
                report.correct,
                "{workload} trace={trace}: {:?}",
                report.problems
            );
            assert!(report.attempted >= 1);
            assert_eq!(report.failed, 0, "{workload} trace={trace}");
            let emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.clone(), (*unit).to_owned()))
                .collect();
            assert_eq!(emitted, declared(&spec, key), "{workload} trace={trace}");
            // The result line is valid JSON carrying every metric.
            let line = ev_json::parse(&report.to_json()).expect("result line parses");
            let metrics = line.get("metrics").and_then(Value::as_object).unwrap();
            assert_eq!(metrics.len(), emitted.len());
        }
    }
}

#[test]
fn open_response_matches_the_servers_flame_graph() {
    let profile = small_spec(&Scale::toy(), 5).build();
    let mut client = ev_ide::EditorClient::connect(ev_ide::EvpServer::new());
    let id = client.open_profile(&profile).unwrap();
    let served = client
        .request(
            "profile/flameGraph",
            Value::object([
                ("profileId", Value::Int(id)),
                ("metric", Value::from("cpu")),
                ("view", Value::from("topDown")),
            ]),
        )
        .unwrap();
    let metric = profile.metric_by_name("cpu").unwrap();
    let ours = flame_value(
        &ev_flame::FlameGraph::top_down(&profile, metric),
        OPEN_FLAME_LIMIT,
    );
    assert_eq!(ev_json::to_string(&served), ev_json::to_string(&ours));
}

//! The EVP server fingerprints each profile version once — when it
//! registers the profile and after every `profile/script` — and keys
//! the view cache with that stored fingerprint, which covers everything
//! a cached view prints. The `cache.fingerprint` counter is
//! process-global, so these tests have their own binary and run one at
//! a time: no other test fingerprints a profile between their
//! readings, and the deltas are exact.

use ev_core::{
    ContextLink, Frame, LinkKind, MetricDescriptor, MetricKind, MetricUnit, NodeId, Profile,
};
use ev_ide::{EditorClient, IdeError, SharedEvpServer};
use ev_json::Value;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fingerprints() -> u64 {
    ev_trace::counter_value("cache.fingerprint")
}

/// Nodes: 0 root, 1 `main`, 2 `work`.
fn profile() -> Profile {
    let mut p = Profile::new("fingerprinted");
    let cpu = p.add_metric(MetricDescriptor::new(
        "cpu",
        MetricUnit::Count,
        MetricKind::Exclusive,
    ));
    let main = Frame::function("main").with_source("main.c", 1);
    p.add_sample(
        &[
            main.clone(),
            Frame::function("work").with_source("work.c", 10),
        ],
        &[(cpu, 5.0)],
    );
    p.add_sample(&[main], &[(cpu, 2.0)]);
    p
}

#[test]
fn cached_view_requests_compute_no_fingerprints() {
    let _serial = serial();
    let server = SharedEvpServer::new();
    let mut client = EditorClient::connect_shared(server.clone()).unwrap();
    let before = fingerprints();
    let id = client.open_profile(&profile()).unwrap();
    assert_eq!(fingerprints() - before, 1, "profile/open fingerprints once");

    let pid = || ("profileId", Value::Int(id));
    let cpu = || ("metric", Value::from("cpu"));
    let views = [
        ("profile/flameGraph", Value::object([pid(), cpu()])),
        (
            "profile/flameGraph",
            Value::object([pid(), cpu(), ("view", Value::from("bottomUp"))]),
        ),
        ("profile/treeTable", Value::object([pid(), cpu()])),
        ("profile/summary", Value::object([pid()])),
    ];
    let rounds = 25u64;
    let before = fingerprints();
    for _ in 0..rounds {
        for (method, params) in &views {
            client.request(method, params.clone()).unwrap();
        }
    }
    assert_eq!(
        fingerprints() - before,
        0,
        "views key on the stored fingerprint"
    );
    let stats = server.view_cache_stats();
    let n = views.len() as u64;
    assert_eq!((stats.misses, stats.hits), (n, (rounds - 1) * n));
}

#[test]
fn a_failing_script_still_refreshes_the_fingerprint() {
    let _serial = serial();
    let server = SharedEvpServer::new();
    let mut client = EditorClient::connect_shared(server.clone()).unwrap();
    let id = client.open_profile(&profile()).unwrap();
    let old = client.flame_graph(id, "topDown", "cpu").unwrap();
    assert_eq!(client.flame_graph(id, "topDown", "cpu").unwrap(), old);
    let misses = server.view_cache_stats().misses;

    // The write lands, then the script fails at run time.
    let script = r#"set_value(2, "cpu", 1000);
let zero = node_count() - node_count();
print(1 / zero);"#;
    let before = fingerprints();
    let err = client.run_script(id, script).unwrap_err();
    assert!(matches!(err, IdeError::Rpc { .. }), "{err:?}");
    assert_eq!(
        fingerprints() - before,
        1,
        "the script's profile version was fingerprinted"
    );

    let new = client.flame_graph(id, "topDown", "cpu").unwrap();
    assert_eq!(
        server.view_cache_stats().misses,
        misses + 1,
        "a miss, not the stale view"
    );
    let work = new.iter().find(|r| r.node == 2).unwrap();
    assert_eq!(work.label, "work");
    assert_eq!(
        work.self_value, 1000.0,
        "the view carries the script's write"
    );
    assert_ne!(new, old);
}

/// `main;<leaf> 40` as profile `name`, recorded by `profiler` in `unit`,
/// with one link when `linked`.
fn one_sample(name: &str, profiler: &str, leaf: &str, unit: MetricUnit, linked: bool) -> Profile {
    let mut p = Profile::new(name);
    p.meta_mut().profiler = profiler.to_owned();
    let cpu = p.add_metric(MetricDescriptor::new("cpu", unit, MetricKind::Exclusive));
    p.add_sample(
        &[Frame::function("main"), Frame::function(leaf)],
        &[(cpu, 40.0)],
    );
    if linked {
        p.add_link(ContextLink::new(LinkKind::UseReuse).with_endpoint(NodeId::ROOT));
    }
    p
}

/// The answers of every memoized view of profile `id`.
fn cached_views(client: &mut EditorClient, id: i64) -> Vec<Value> {
    let pid = || ("profileId", Value::Int(id));
    let cpu = || ("metric", Value::from("cpu"));
    let flame = |view: &str| Value::object([pid(), cpu(), ("view", Value::from(view))]);
    [
        ("profile/flameGraph", flame("topDown")),
        ("profile/flameGraph", flame("bottomUp")),
        ("profile/flameGraph", flame("flat")),
        ("profile/treeTable", Value::object([pid(), cpu()])),
        ("profile/summary", Value::object([pid()])),
    ]
    .into_iter()
    .map(|(method, params)| client.request(method, params).unwrap())
    .collect()
}

#[test]
fn cached_views_of_look_alike_profiles_do_not_leak_between_them() {
    let _serial = serial();
    // Each variant has the base's tree shape, frame ids and values, and
    // differs in one thing only the strings, the metadata, the metric
    // units or the links show.
    let base = one_sample("run-a", "pprof", "work", MetricUnit::Count, false);
    let variants = [
        one_sample("run-a", "pprof", "idle", MetricUnit::Count, false),
        one_sample("run-b", "pprof", "work", MetricUnit::Count, false),
        one_sample("run-a", "perf", "work", MetricUnit::Count, false),
        one_sample("run-a", "pprof", "work", MetricUnit::Nanoseconds, false),
        one_sample("run-a", "pprof", "work", MetricUnit::Count, true),
    ];
    let alone = |profile: &Profile| {
        let mut client = EditorClient::connect_shared(SharedEvpServer::new()).unwrap();
        let id = client.open_profile(profile).unwrap();
        cached_views(&mut client, id)
    };
    let base_alone = alone(&base);
    for (i, variant) in variants.iter().enumerate() {
        let server = SharedEvpServer::new();
        let mut client = EditorClient::connect_shared(server).unwrap();
        let base_id = client.open_profile(&base).unwrap();
        let variant_id = client.open_profile(variant).unwrap();
        assert_eq!(cached_views(&mut client, base_id), base_alone);
        assert_eq!(
            cached_views(&mut client, variant_id),
            alone(variant),
            "variant {i}"
        );
    }
}

//! Cross-crate view integration: the case-study workloads drive the
//! advanced views (aggregate, differential, correlated) and the
//! user-facing claims hold on the output.

use ev_analysis::{aggregate, classify_timeline, diff, DiffTag, MetricView, TimelinePattern};
use ev_bench::oracle;
use ev_core::{LinkKind, MetricId, Profile};
use ev_flame::{CorrelatedView, DiffFlameGraph, FlameGraph, Histogram, TreeTable};
use ev_gen::synthetic::SyntheticSpec;
use ev_gen::{grpc_leak, lulesh, spark};
use ev_ide::{EditorClient, EvpServer};
use ev_json::Value;

#[test]
fn aggregate_histograms_detect_exactly_the_leaking_sites() {
    let snapshots = grpc_leak::snapshots(50, 99);
    let refs: Vec<&Profile> = snapshots.iter().collect();
    let agg = aggregate(&refs, "inuse_space").expect("aggregate");
    agg.profile.validate().expect("valid");

    let mut leaks = Vec::new();
    for node in agg.profile.node_ids() {
        if !agg.profile.node(node).children().is_empty() {
            continue;
        }
        if classify_timeline(agg.series(node)) == TimelinePattern::PotentialLeak {
            leaks.push(agg.profile.resolve_frame(node).name);
        }
    }
    leaks.sort();
    assert_eq!(
        leaks,
        ["bufio.NewReaderSize", "transport.newBufWriter"],
        "exactly the paper's two leak sites"
    );

    // Histograms over the leak series are visibly non-decreasing.
    let leak_node = agg
        .profile
        .node_ids()
        .find(|&id| agg.profile.resolve_frame(id).name == "transport.newBufWriter")
        .expect("leak node");
    let hist = Histogram::new(agg.series(leak_node));
    let normalized = hist.normalized();
    assert!(normalized.last().copied().unwrap_or(0.0) > 0.9);
}

#[test]
fn lulesh_bottom_up_finds_brk_and_correlated_view_walks_links() {
    let cpu = lulesh::cpu_profile(3);
    let metric = cpu.metric_by_name("CPUTIME (sec)").expect("metric");

    // Fig. 6: brk tops the bottom-up view but is scattered top-down.
    let bottom_up = FlameGraph::bottom_up(&cpu, metric);
    let top_leaf = bottom_up
        .rects()
        .iter()
        .filter(|r| r.depth == 1)
        .max_by(|a, b| a.width.total_cmp(&b.width))
        .expect("leaves");
    assert_eq!(top_leaf.label, "brk");
    let top_down = FlameGraph::top_down(&cpu, metric);
    let brk_rects = top_down
        .rects()
        .iter()
        .filter(|r| r.label == "brk")
        .count();
    assert!(brk_rects >= 2, "brk is split across call paths top-down");

    // Fig. 7: alloc → use → reuse navigation.
    let reuse = lulesh::reuse_profile(3);
    let view = CorrelatedView::new(&reuse.profile, LinkKind::UseReuse, reuse.bytes);
    let allocations = view.endpoints(0, &[]);
    assert_eq!(allocations.len(), 8);
    for &alloc in &allocations {
        let uses = view.endpoints(1, &[alloc]);
        assert_eq!(uses.len(), 1);
        let reuses = view.endpoints(2, &[alloc, uses[0]]);
        assert_eq!(reuses.len(), 1);
        // The reuse pane shows the hourglass kernel in its path.
        let pane = view.pane(2, &[alloc, uses[0]]);
        assert!(pane
            .rects()
            .iter()
            .any(|r| r.label == "CalcHourglassForceForElems"));
    }
}

#[test]
fn spark_differential_matches_fig3_reading() {
    let rdd = spark::rdd_profile();
    let sql = spark::sql_profile();
    let dfg = DiffFlameGraph::new(&rdd, &sql, spark::metric_name()).expect("diff");
    let labels: Vec<&str> = dfg
        .graph()
        .rects()
        .iter()
        .map(|r| r.label.as_str())
        .collect();
    assert!(labels
        .iter()
        .any(|l| l.starts_with("[D]") && l.contains("Shuffle")));
    assert!(labels
        .iter()
        .any(|l| l.starts_with("[A]") && l.contains("sql")));
    // Tag counts: something added, something deleted, spine unchanged.
    let counts = dfg.diff().tag_counts();
    assert!(counts[0].1 > 0 && counts[1].1 > 0 && counts[4].1 > 0);
    // Quantified: total delta is negative (P2 is faster).
    assert!(dfg.diff().profile.total(dfg.diff().delta) < 0.0);
}

#[test]
fn diff_of_workload_against_itself_is_silent() {
    let p = spark::rdd_profile();
    let d = diff(&p, &p, spark::metric_name(), 0.0).expect("diff");
    for (_, entry) in d.entries() {
        assert_eq!(entry.tag, DiffTag::Unchanged);
    }
}

#[test]
fn tree_table_and_flame_graph_agree_on_inclusive_values() {
    let cpu = lulesh::cpu_profile(5);
    let metric = cpu.metric_by_name("CPUTIME (sec)").expect("metric");
    let graph = FlameGraph::top_down(&cpu, metric);
    let mut table = TreeTable::new(&cpu, &[metric]);
    table.expand_to_depth(64);
    let view = MetricView::compute(&cpu, metric);
    for row in table.rows() {
        assert!((row.values[0].0 - view.inclusive(row.node)).abs() < 1e-9);
        if let Some(rect) = graph.rects().iter().find(|r| r.node == row.node) {
            assert!((rect.value - row.values[0].0).abs() < 1e-9);
        }
    }
}

/// Requests every view of `profile` over EVP with a limit that covers
/// every rect, and checks each rect against the layout of the tree the
/// view draws (the profile itself, or a retained transform of it):
/// same label and `mapped`, a `node` of the opened profile, and, for a
/// mapped rect, a `profile/codeLink` that lands on the file and line of
/// the rect's own frame. Returns the number of code links followed.
fn assert_code_links_land(profile: &Profile, metric_name: &str) -> usize {
    let metric = profile.metric_by_name(metric_name).expect("metric");
    let mut client = EditorClient::connect(EvpServer::new());
    let profile_id = client.open_profile(profile).expect("open");
    let bottom_up = oracle::bottom_up(profile, metric).profile;
    let flat = oracle::flatten(profile, metric).profile;
    let first = MetricId::from_index(0);
    let views: [(&str, &Profile, MetricId); 3] = [
        ("topDown", profile, metric),
        ("bottomUp", &bottom_up, first),
        ("flat", &flat, first),
    ];
    let mut links = 0;
    for (view, tree, tree_metric) in views {
        let drawn = FlameGraph::top_down(tree, tree_metric);
        let result = client
            .request(
                "profile/flameGraph",
                Value::object([
                    ("profileId", Value::Int(profile_id)),
                    ("metric", Value::from(metric_name)),
                    ("view", Value::from(view)),
                    ("limit", Value::Int(drawn.rects().len() as i64)),
                ]),
            )
            .expect("flameGraph");
        let rects = result
            .get("rects")
            .and_then(Value::as_array)
            .expect("rects");
        assert_eq!(rects.len(), drawn.rects().len(), "{view}: rect count");
        for (i, (rect, want)) in rects.iter().zip(drawn.rects()).enumerate() {
            let node = rect.get("node").and_then(Value::as_i64).expect("node");
            assert!(
                (0..profile.node_count() as i64).contains(&node),
                "{view} rect {i}: node {node} is not a node of the profile"
            );
            assert_eq!(
                rect.get("label").and_then(Value::as_str),
                Some(want.label.as_str()),
                "{view} rect {i}: label"
            );
            let mapped = rect.get("mapped").and_then(Value::as_bool).expect("mapped");
            assert_eq!(mapped, want.mapped, "{view} rect {i}: mapped");
            if !mapped {
                continue;
            }
            let frame = tree.resolve_frame(want.node);
            let link = client
                .request(
                    "profile/codeLink",
                    Value::object([
                        ("profileId", Value::Int(profile_id)),
                        ("node", Value::Int(node)),
                    ]),
                )
                .unwrap_or_else(|e| {
                    panic!("{view} rect {i} ({}): codeLink failed: {e}", want.label)
                });
            assert_eq!(
                (
                    link.get("file").and_then(Value::as_str),
                    link.get("line").and_then(Value::as_i64)
                ),
                (Some(frame.file.as_str()), Some(i64::from(frame.line))),
                "{view} rect {i} ({}): codeLink landed elsewhere",
                want.label
            );
            links += 1;
        }
    }
    links
}

#[test]
fn code_links_of_every_view_land_on_the_rect_frame() {
    let cpu = lulesh::cpu_profile(3);
    assert!(assert_code_links_land(&cpu, "CPUTIME (sec)") > 0);
    // Each function recurs in many contexts, so a bottom-up rect's
    // function has many candidate source nodes.
    let synthetic = SyntheticSpec {
        functions: 2_000,
        samples: 50_000,
        ..SyntheticSpec::default()
    }
    .build();
    assert!(assert_code_links_land(&synthetic, "cpu") > 0);
}

//! Ablation benches for the analysis/visualization stages behind the
//! views (DESIGN.md design-choice ablations):
//!
//! * prefix-merged CCT construction vs. the profile sizes it absorbs;
//! * the tree transforms (bottom-up and flat re-attribute);
//! * aggregation and differentiation across profiles (§V-A-c);
//! * flame-graph layout (the per-frame geometry pass);
//! * the EVscript interpreter on a traversal-heavy customization.

use ev_analysis::{aggregate, bottom_up, diff, flatten, MetricView};
use ev_bench::timer::{bench, group};
use ev_core::{MetricId, Profile};
use ev_flame::FlameGraph;
use ev_gen::grpc_leak;
use ev_gen::synthetic::SyntheticSpec;
use ev_script::ScriptHost;

fn test_profile(samples: usize) -> (Profile, MetricId) {
    let p = SyntheticSpec {
        samples,
        seed: 99,
        ..SyntheticSpec::default()
    }
    .build();
    let m = p.metric_by_name("cpu").expect("metric");
    (p, m)
}

fn transforms() {
    group("transforms");
    for samples in [2_000usize, 20_000] {
        let (p, m) = test_profile(samples);
        bench(&format!("metric_view/{samples}"), 20, || {
            MetricView::compute(std::hint::black_box(&p), m);
        });
        bench(&format!("bottom_up/{samples}"), 20, || {
            bottom_up(std::hint::black_box(&p), m);
        });
        bench(&format!("flatten/{samples}"), 20, || {
            flatten(std::hint::black_box(&p), m);
        });
        bench(&format!("flame_layout/{samples}"), 20, || {
            FlameGraph::top_down(std::hint::black_box(&p), m);
        });
    }
}

fn multi_profile() {
    group("multi_profile");
    let snaps = grpc_leak::snapshots(100, 11);
    let refs: Vec<&Profile> = snaps.iter().collect();
    bench("aggregate_100_snapshots", 20, || {
        aggregate(std::hint::black_box(&refs), "inuse_space").expect("agg");
    });
    let (p1, _) = test_profile(5_000);
    let (p2, _) = test_profile(5_000);
    bench("diff_5k_samples", 20, || {
        diff(
            std::hint::black_box(&p1),
            std::hint::black_box(&p2),
            "cpu",
            0.0,
        )
        .expect("diff");
    });
}

fn script() {
    group("evscript");
    let (p, _) = test_profile(2_000);
    bench("visit_all_nodes", 10, || {
        let mut p = p.clone();
        ScriptHost::new(&mut p)
            .run(
                r#"
                let hot = 0;
                let threshold = total("cpu") * 0.001;
                visit(fn(n) {
                    if value(n, "cpu") > threshold { hot = hot + 1; }
                });
                "#,
            )
            .expect("script");
    });
}

fn main() {
    transforms();
    multi_profile();
    script();
}

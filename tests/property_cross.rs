//! Cross-crate property tests: randomized profiles exercise the full
//! serialization, conversion, analysis, and protocol stack.

use ev_core::{format, Frame, MetricDescriptor, MetricId, MetricKind, MetricUnit, NodeId, Profile};
use ev_gen::synthetic::SyntheticSpec;
use ev_ide::EvpServer;
use ev_test::prelude::*;

fn arb_spec() -> impl Gen<Value = SyntheticSpec> {
    (
        any_u64(),
        50usize..400,
        2usize..6,
        8usize..20,
        1usize..4,
    )
        .prop_map(|(seed, samples, min_depth, max_depth, metrics)| SyntheticSpec {
            seed,
            samples,
            functions: 200,
            min_depth,
            max_depth: max_depth.max(min_depth + 1),
            modules: 4,
            metrics,
        })
}

property! {
    #![cases(24)]

    fn native_format_roundtrips_generated_profiles(
        spec in arb_spec(),
        picks in vec(any_u32(), 1..40),
    ) {
        let mut profile = spec.build();
        profile.validate().unwrap();
        // A metric added after the nodes exist, stored on only some of
        // them, holding the values a dense column must keep apart from
        // an absent one: explicit zeros of both signs and NaN.
        let late = profile.add_metric(MetricDescriptor::new(
            "late",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        let odd = [0.0, -0.0, f64::NAN, -2.5];
        let n = profile.node_count();
        for (k, &pick) in picks.iter().enumerate() {
            let node = NodeId::from_index(pick as usize % n);
            match k % 3 {
                0 => profile.set_value(node, late, odd[k % odd.len()]),
                _ => profile.add_value(node, late, odd[k % odd.len()]),
            }
        }
        // A first add_value(-0.0) stores -0.0, not +0.0 plus the delta.
        let fresh = profile.child(NodeId::ROOT, &Frame::function("fresh"));
        profile.add_value(fresh, MetricId::from_index(0), -0.0);
        prop_assert_eq!(
            profile.node(fresh).values().map(|(m, v)| (m, v.to_bits())).collect::<Vec<_>>(),
            vec![(MetricId::from_index(0), (-0.0f64).to_bits())]
        );

        let pairs = |p: &Profile| -> Vec<(NodeId, MetricId, u64)> {
            p.node_ids()
                .flat_map(|id| p.node(id).values().map(move |(m, v)| (id, m, v.to_bits())))
                .collect()
        };
        let bytes = format::to_bytes(&profile);
        for copy in [format::from_bytes(&bytes).unwrap(), profile.clone()] {
            prop_assert_eq!(pairs(&copy), pairs(&profile));
            prop_assert!(copy == profile);
            prop_assert_eq!(format::to_bytes(&copy), bytes.clone());
        }
    }

    fn pprof_roundtrip_preserves_shape_and_mass(spec in arb_spec()) {
        let profile = spec.build();
        let bytes = ev_formats::pprof::write(
            &profile,
            ev_formats::pprof::WriteOptions::default(),
        );
        let decoded = ev_formats::pprof::parse(&bytes).unwrap();
        decoded.validate().unwrap();
        prop_assert_eq!(decoded.node_count(), profile.node_count());
        for (i, metric) in profile.metrics().iter().enumerate() {
            let m1 = MetricId::from_index(i);
            let m2 = decoded.metric_by_name(&metric.name).unwrap();
            let (t1, t2) = (profile.total(m1), decoded.total(m2));
            // pprof stores integer values; allow rounding per node.
            prop_assert!((t1 - t2).abs() <= profile.node_count() as f64, "{t1} vs {t2}");
        }
    }

    fn transforms_conserve_mass_on_generated_profiles(spec in arb_spec()) {
        let profile = spec.build();
        let metric = MetricId::from_index(0);
        let total = profile.total(metric);
        let name = profile.metric(metric).name.clone();
        let bu = ev_analysis::bottom_up(&profile, metric).profile;
        let flat = ev_analysis::flatten(&profile, metric).profile;
        let m_bu = bu.metric_by_name(&name).unwrap();
        let m_flat = flat.metric_by_name(&name).unwrap();
        prop_assert!((bu.total(m_bu) - total).abs() / total < 1e-9);
        prop_assert!((flat.total(m_flat) - total).abs() / total < 1e-9);
    }

    fn aggregate_of_clones_is_scalar_multiple(spec in arb_spec(), n in 2usize..5) {
        let profile = spec.build();
        let metric = MetricId::from_index(0);
        let name = profile.metric(metric).name.clone();
        let clones: Vec<&Profile> = std::iter::repeat_n(&profile, n).collect();
        let agg = ev_analysis::aggregate(&clones, &name).unwrap();
        let total = profile.total(metric);
        prop_assert!(
            (agg.profile.total(agg.metrics.sum) - total * n as f64).abs() / total < 1e-9
        );
        prop_assert!(
            (agg.profile.total(agg.metrics.mean) - total).abs() / total < 1e-9
        );
        // min == max == per-profile value at every node.
        for id in agg.profile.node_ids() {
            let min = agg.profile.value(id, agg.metrics.min);
            let max = agg.profile.value(id, agg.metrics.max);
            prop_assert!((min - max).abs() < 1e-9);
        }
    }

    fn evp_server_never_panics_on_arbitrary_bytes(data in vec(any_u8(), 0..512)) {
        let server = EvpServer::new();
        // Arbitrary bytes: either an error or a partial-frame wait, never
        // a panic.
        let _ = server.handle_bytes(&data);
    }

    fn evp_server_survives_arbitrary_json_requests(
        method in string_from("abcdefghijklmnopqrstuvwxyz/", 0..25),
        id in any_i64(),
        junk in string_from("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", 0..17),
    ) {
        let server = EvpServer::new();
        let request = ev_json::Value::object([
            ("jsonrpc", ev_json::Value::from("2.0")),
            ("id", ev_json::Value::Int(id)),
            ("method", ev_json::Value::from(method)),
            ("params", ev_json::Value::object([
                ("profileId", ev_json::Value::Int(id)),
                ("junk", ev_json::Value::from(junk)),
            ])),
        ]);
        let frame = ev_ide::rpc::encode_frame(&request);
        let (reply, consumed) = server.handle_bytes(&frame).unwrap();
        prop_assert_eq!(consumed, frame.len());
        // Every well-formed request gets exactly one well-formed response.
        let (value, used) = ev_ide::rpc::decode_frame(&reply).unwrap().unwrap();
        prop_assert_eq!(used, reply.len());
        prop_assert!(ev_ide::rpc::Response::from_value(&value).is_ok());
    }

    fn flame_layout_geometry_on_generated_profiles(spec in arb_spec()) {
        let profile = spec.build();
        let metric = MetricId::from_index(0);
        let graph = ev_flame::FlameGraph::top_down(&profile, metric);
        for pair in graph.rects().windows(2) {
            if pair[0].depth == pair[1].depth {
                prop_assert!(pair[0].x + pair[0].width <= pair[1].x + 1e-9);
            }
        }
    }
}

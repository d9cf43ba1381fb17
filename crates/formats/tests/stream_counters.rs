//! Pipeline counters of the streaming pprof decoder. Tracing and the
//! metrics registry are process-global, so this test has its own
//! binary: no other test toggles tracing or streams between its
//! readings.

use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};
use ev_flate::ExecPolicy;
use ev_formats::pprof;

#[test]
fn streaming_decode_bumps_chunk_and_refill_counters() {
    let mut p = Profile::new("stream-counters");
    let m = p.add_metric(MetricDescriptor::new(
        "cpu",
        MetricUnit::Count,
        MetricKind::Exclusive,
    ));
    p.add_sample(
        &[Frame::function("main"), Frame::function("hot")],
        &[(m, 90.0)],
    );
    p.add_sample(&[Frame::function("main")], &[(m, 10.0)]);
    let gz = pprof::write(&p, pprof::WriteOptions::default());
    assert!(ev_flate::is_gzip(&gz));

    let chunks_before = ev_trace::counter_value("flate.stream_chunks");
    let refills_before = ev_trace::counter_value("wire.stream_refills");
    ev_trace::set_enabled(true);
    let streamed = pprof::parse_streaming_with(&gz, ExecPolicy::SEQUENTIAL, 64);
    ev_trace::set_enabled(false);
    streamed.unwrap();
    assert!(ev_trace::counter_value("flate.stream_chunks") > chunks_before);
    assert!(ev_trace::counter_value("wire.stream_refills") > refills_before);
}

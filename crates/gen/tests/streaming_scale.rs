//! GB-scale streaming ingest test, `#[ignore]`d by default (it
//! fabricates a multi-hundred-MiB pprof file on the fly and decodes it
//! three times). Run explicitly with:
//!
//! ```text
//! cargo test -p ev-gen --release -- --ignored streaming
//! ```
//!
//! This is the scale the bounded-memory pipeline exists for: the
//! chunk-boundary differential suite in `ev-formats` proves identity
//! on small adversarial fixtures, this proves it holds at a size where
//! the buffered path's whole-body allocation actually hurts.

use ev_formats::pprof;
use ev_gen::synthetic::pprof_with_size;

#[test]
#[ignore = "fabricates and decodes a multi-hundred-MiB profile; run with --ignored"]
fn streaming_matches_buffered_at_scale() {
    // ~192 MiB compressed — several hundred MiB of protobuf body.
    let gz = pprof_with_size(192 << 20, 0x9a7e);
    assert!(
        gz.len() >= 128 << 20,
        "calibration fell short: {} bytes",
        gz.len()
    );
    let policy = ev_flate::ExecPolicy::with_threads(4);
    let buffered = pprof::parse(&gz).expect("buffered parse");
    for chunk_size in [ev_flate::DEFAULT_CHUNK_SIZE, 3 << 20] {
        let streamed =
            pprof::parse_streaming_with(&gz, policy, chunk_size).expect("streaming parse");
        assert_eq!(
            streamed, buffered,
            "streaming (chunk={chunk_size}) diverged from buffered"
        );
    }
}

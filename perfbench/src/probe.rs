//! Direct probes of single layers for the traced run: host ceilings,
//! the view layouts a serve request computes on a cache miss, the view
//! fingerprint every cached request pays, and EVscript runs.

use std::hint::black_box;
use std::time::Instant;

use ev_core::{MetricId, Profile};
use ev_flame::FlameGraph;
use ev_script::ScriptHost;

use crate::inputs::{mutate_script, read_script, SERVE_FLAME_LIMIT};
use crate::stats::median;

const CEILING_REPS: usize = 7;

fn gib_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64 / secs
}

fn ceiling_buffer(bytes: usize) -> Vec<u8> {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    (0..bytes)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

/// Host ceilings measured in-process: memcpy and a byte-scan loop
/// (counting varint continuation bytes), GiB/s, median of several
/// passes over a buffer of `bytes`.
pub fn ceilings(bytes: usize) -> (f64, f64) {
    let src = ceiling_buffer(bytes);
    let mut dst = vec![0u8; src.len()];
    let mut copy = Vec::with_capacity(CEILING_REPS);
    let mut scan = Vec::with_capacity(CEILING_REPS);
    for _ in 0..CEILING_REPS {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        copy.push(gib_per_s(src.len(), t.elapsed().as_secs_f64()));
        let t = Instant::now();
        let continuation = black_box(&src).iter().filter(|&&b| b & 0x80 != 0).count();
        black_box(continuation);
        scan.push(gib_per_s(src.len(), t.elapsed().as_secs_f64()));
    }
    (median(&copy), median(&scan))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Cold bottom-up and flat layouts of `profile`, milliseconds each.
pub fn layouts(profile: &Profile, metric: MetricId) -> (f64, f64) {
    let t = Instant::now();
    black_box(FlameGraph::bottom_up(profile, metric));
    let bottom_up = ms_since(t);
    let t = Instant::now();
    black_box(FlameGraph::flat(profile, metric));
    (bottom_up, ms_since(t))
}

/// Median microseconds of `ev_analysis::view_key` for a cached
/// flame-graph request, over at least `min_reps` calls and 200 ms.
pub fn fingerprint_us(profile: &Profile, metric: MetricId, min_reps: usize) -> f64 {
    let limit_tag = format!("limit:{SERVE_FLAME_LIMIT}");
    let transforms = ["flame", "topDown", limit_tag.as_str()];
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min_reps || start.elapsed().as_millis() < 200 {
        let t = Instant::now();
        black_box(ev_analysis::view_key(
            black_box(profile),
            metric,
            &transforms,
        ));
        times.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&times)
}

/// Runs the serve mix's scripts through `ScriptHost` on a private copy
/// of `profile`, alternating the mutating and the read-only script,
/// `runs` times. Returns mean microseconds per run and mean
/// `script.vm_ops` per run.
pub fn scripts(profile: &Profile, runs: usize) -> Result<(f64, f64), String> {
    let mut copy = profile.clone();
    let mut micros = Vec::with_capacity(runs);
    let ops_before = ev_trace::counter_value("script.vm_ops");
    for i in 0..runs {
        let source = if i % 2 == 0 {
            mutate_script(i as u32)
        } else {
            read_script()
        };
        let t = Instant::now();
        // No step limit: a visit over a million nodes outruns the
        // server's default, and the probe times the engine, not the cap.
        ScriptHost::new(&mut copy)
            .with_step_limit(u64::MAX)
            .run(&source)
            .map_err(|e| format!("script probe: {e}"))?;
        micros.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let ops = ev_trace::counter_value("script.vm_ops") - ops_before;
    Ok((crate::stats::mean(&micros), ops as f64 / runs.max(1) as f64))
}

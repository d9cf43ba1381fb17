//! Parameterized random profiles with size calibration (Fig. 5 inputs).

use ev_core::{Frame, MetricDescriptor, MetricId, MetricKind, MetricUnit, Profile};
use ev_formats::pprof::{write, WriteOptions};
use ev_flate::CompressionLevel;
use ev_test::Rng;

/// Shape parameters for a synthetic profile.
///
/// Defaults mimic a medium Go service profile: a few thousand distinct
/// functions, call stacks around 20–40 frames, heavy sharing of path
/// prefixes.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// RNG seed; equal specs generate byte-identical profiles.
    pub seed: u64,
    /// Size of the function universe.
    pub functions: usize,
    /// Number of samples (distinct call paths ≈ samples with sharing).
    pub samples: usize,
    /// Minimum stack depth.
    pub min_depth: usize,
    /// Maximum stack depth.
    pub max_depth: usize,
    /// Number of distinct load modules.
    pub modules: usize,
    /// Number of metric channels.
    pub metrics: usize,
}

impl Default for SyntheticSpec {
    fn default() -> SyntheticSpec {
        SyntheticSpec {
            seed: 0xEA57,
            functions: 2000,
            samples: 10_000,
            min_depth: 8,
            max_depth: 40,
            modules: 12,
            metrics: 2,
        }
    }
}

impl SyntheticSpec {
    /// Generates the profile.
    pub fn build(&self) -> Profile {
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut profile = Profile::new(format!("synthetic-{}", self.seed));
        profile.meta_mut().profiler = "ev-gen".to_owned();
        let metrics: Vec<MetricId> = (0..self.metrics.max(1))
            .map(|i| {
                profile.add_metric(MetricDescriptor::new(
                    match i {
                        0 => "cpu".to_owned(),
                        1 => "alloc_space".to_owned(),
                        n => format!("metric{n}"),
                    },
                    if i == 1 { MetricUnit::Bytes } else { MetricUnit::Nanoseconds },
                    MetricKind::Exclusive,
                ))
            })
            .collect();

        // Function universe with stable names/files/modules, interned
        // once so sample insertion works on frame-table ids.
        let universe: Vec<ev_core::FrameId> = (0..self.functions.max(1))
            .map(|i| {
                let module = format!("module{}.so", i % self.modules.max(1));
                let file = format!("src/file_{}.go", i % (self.functions / 7 + 1));
                let frame = Frame::function(format!("pkg.Function{i:05}"))
                    .with_module(module)
                    .with_source(file, (i % 500 + 1) as u32)
                    .with_address(0x400000 + (i as u64) * 0x40);
                let frame = profile.intern_frame(&frame);
                profile.frame_id(frame)
            })
            .collect();

        // Call paths evolve by mutation, the way real CCTs share
        // structure: most samples land on an existing path; the rest
        // fork an existing path at a random depth and extend it a few
        // frames. Interior nodes are therefore heavily shared and the
        // CCT grows sublinearly in the sample count.
        let mut paths: Vec<Vec<usize>> = Vec::new();
        let seed_depth = self.min_depth.max(2);
        paths.push(
            (0..seed_depth)
                .map(|i| (i * 13) % self.functions.max(1))
                .collect(),
        );
        let mut path_indices: Vec<usize> = Vec::new();
        for _ in 0..self.samples {
            path_indices.clear();
            if rng.gen_bool(0.60) {
                // Revisit an existing call path (merges entirely).
                let existing = &paths[rng.gen_range(0..paths.len())];
                path_indices.extend_from_slice(existing);
            } else {
                // Fork: keep a prefix of an existing path, extend with a
                // short fresh suffix (1–5 frames), respecting max_depth.
                let existing = &paths[rng.gen_range(0..paths.len())];
                let keep = rng.gen_range(1..=existing.len());
                path_indices.extend_from_slice(&existing[..keep]);
                let extend = rng.gen_range(1..=5usize);
                for _ in 0..extend {
                    if path_indices.len() >= self.max_depth {
                        break;
                    }
                    let last = *path_indices.last().expect("nonempty");
                    let next = (last * 31 + rng.gen_range(0..64)) % self.functions.max(1);
                    path_indices.push(next);
                }
                if paths.len() < 100_000 {
                    paths.push(path_indices.clone());
                } else {
                    let slot = rng.gen_range(0..paths.len());
                    paths[slot] = path_indices.clone();
                }
            }
            let mut node = profile.root();
            for &i in &path_indices {
                node = profile.child_id(node, universe[i]);
            }
            for &m in &metrics {
                profile.add_value(node, m, rng.gen_range(1..10_000) as f64);
            }
        }
        profile
    }

    /// Generates the profile and serializes it as a gzip'd pprof file.
    pub fn build_pprof(&self) -> Vec<u8> {
        write(
            &self.build(),
            WriteOptions {
                gzip: true,
                level: CompressionLevel::Fast,
            },
        )
    }
}

/// Generates a gzip'd pprof file whose size is within ±20 % of
/// `target_bytes`, by scaling the sample count of a base spec.
///
/// The Fig. 5 experiment sweeps file sizes over three decades; this is
/// the calibration step that pins each point. Calibration extrapolates
/// from one probe build, then refines once if needed.
pub fn pprof_with_size(target_bytes: usize, seed: u64) -> Vec<u8> {
    let probe_samples = 2_000usize;
    let mut spec = SyntheticSpec {
        seed,
        samples: probe_samples,
        ..SyntheticSpec::default()
    };
    let probe = spec.build_pprof();
    if probe.len() >= target_bytes {
        return probe;
    }
    // Fixed overhead (string table, locations) plus per-sample cost.
    let per_sample = (probe.len() as f64 / probe_samples as f64).max(1.0);
    // One extrapolated build, then a single proportional correction.
    let estimate = (target_bytes as f64 / per_sample) as usize;
    spec.samples = estimate.max(100);
    // Scale the function universe with size, but keep it bounded the
    // way real services are (tens of thousands of symbols, not
    // millions).
    spec.functions = (spec.samples / 50).clamp(2000, 30_000);
    let bytes = spec.build_pprof();
    let ratio = bytes.len() as f64 / target_bytes as f64;
    if (0.8..=1.2).contains(&ratio) {
        return bytes;
    }
    spec.samples = ((spec.samples as f64) / ratio) as usize;
    spec.build_pprof()
}

/// A long-capture pprof file: `samples` samples drawn from a small,
/// heavily shared pool of call chains, serialized directly on the wire
/// (every sample individually — an aggregating writer would collapse
/// them) with the string table *after* the samples, like Go's runtime
/// emits. This is the GB-scale shape the streaming decoder exists for:
/// the sample stream dominates the file while the decoded profile
/// (its CCT is the tiny chain pool) stays small, so buffered ingest
/// peaks at the whole decompressed body and streaming ingest does not.
pub fn pprof_longrun(samples: usize, seed: u64) -> Vec<u8> {
    use ev_wire::Writer;

    let mut rng = Rng::seed_from_u64(seed);
    let n_functions = 400usize;
    let n_chains = 1000usize;

    // Chain pool: leaf-first location id chains, depth 24–64 (the
    // stack depths long-running services actually capture), built by
    // forking earlier chains so interior prefixes are shared.
    let mut chains: Vec<Vec<u64>> = Vec::with_capacity(n_chains);
    chains.push((1..=24u64).collect());
    while chains.len() < n_chains {
        let base = &chains[rng.gen_range(0..chains.len())];
        let keep = rng.gen_range(1..=base.len());
        let mut chain: Vec<u64> = base[..keep].to_vec();
        while chain.len() < 64 && (chain.len() < 24 || rng.gen_bool(0.5)) {
            chain.push(rng.gen_range(0..n_functions as u64) + 1);
        }
        chains.push(chain);
    }

    let mut w = Writer::new();
    w.write_message_with(1, |m| {
        m.write_int64(1, 1);
        m.write_int64(2, 2);
    });
    for _ in 0..samples {
        let chain = &chains[rng.gen_range(0..n_chains)];
        let value = rng.gen_range(1..1000u64) as i64;
        w.write_message_with(2, |m| {
            m.write_packed_uint64(1, chain);
            m.write_packed_int64(2, &[value]);
        });
    }
    for i in 0..n_functions as u64 {
        w.write_message_with(4, |m| {
            m.write_uint64(1, i + 1);
            m.write_uint64(3, 0x40_0000 + i * 0x40);
            m.write_message_with(4, |lm| {
                lm.write_uint64(1, i + 1);
                lm.write_int64(2, (i % 500) as i64 + 1);
            });
        });
        w.write_message_with(5, |m| {
            m.write_uint64(1, i + 1);
            m.write_int64(2, i as i64 + 3);
        });
    }
    w.write_string(6, "");
    w.write_string(6, "cpu");
    w.write_string(6, "nanoseconds");
    for i in 0..n_functions {
        w.write_string(6, &format!("svc.Handler{i:03}"));
    }
    ev_flate::gzip_compress(&w.into_bytes(), CompressionLevel::Fast)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticSpec { seed: 1, samples: 200, ..SyntheticSpec::default() }.build();
        let b = SyntheticSpec { seed: 1, samples: 200, ..SyntheticSpec::default() }.build();
        let c = SyntheticSpec { seed: 2, samples: 200, ..SyntheticSpec::default() }.build();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn respects_shape_parameters() {
        let spec = SyntheticSpec {
            seed: 7,
            samples: 500,
            min_depth: 5,
            max_depth: 12,
            metrics: 3,
            ..SyntheticSpec::default()
        };
        let p = spec.build();
        p.validate().unwrap();
        assert_eq!(p.metrics().len(), 3);
        // Depth bounds hold for every leaf.
        for id in p.node_ids() {
            assert!(p.depth(id) <= 12);
        }
        // Prefix sharing: far fewer nodes than samples × depth.
        assert!(p.node_count() < 500 * 12);
    }

    #[test]
    fn longrun_parses_small_and_streams_identically() {
        let gz = pprof_longrun(5_000, 9);
        assert!(ev_flate::is_gzip(&gz));
        let p = ev_formats::pprof::parse(&gz).unwrap();
        p.validate().unwrap();
        // The CCT is the chain pool, not the sample stream.
        assert!(p.node_count() < 40_000, "{} nodes", p.node_count());
        let s = ev_formats::pprof::parse_streaming_with(
            &gz,
            ev_flate::ExecPolicy::with_threads(2),
            4096,
        )
        .unwrap();
        assert_eq!(p, s, "streaming differs");
    }

    #[test]
    fn pprof_roundtrip_through_converter() {
        let bytes = SyntheticSpec {
            samples: 300,
            ..SyntheticSpec::default()
        }
        .build_pprof();
        assert!(ev_flate::is_gzip(&bytes));
        let parsed = ev_formats::pprof::parse(&bytes).unwrap();
        parsed.validate().unwrap();
        assert!(parsed.node_count() > 100);
        assert!(parsed.metric_by_name("cpu").is_some());
    }

    #[test]
    fn size_calibration_hits_targets() {
        for target in [100_000usize, 1_000_000] {
            let bytes = pprof_with_size(target, 42);
            let ratio = bytes.len() as f64 / target as f64;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "target {target}: got {} (ratio {ratio:.2})",
                bytes.len()
            );
            // The calibrated file is still a valid pprof profile.
            ev_formats::pprof::parse(&bytes).unwrap();
        }
    }
}

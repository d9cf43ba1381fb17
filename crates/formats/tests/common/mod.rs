//! Shared pprof payload fabricators for the differential conformance
//! suites (`pprof_differential.rs`, `pprof_streaming.rs`).
//!
//! Payloads are built directly with `ev_wire::Writer` rather than
//! `ev-gen` (which would create a dev-dependency cycle), which also
//! lets the generators reach states a well-formed writer never emits:
//! duplicate ids, dangling references, wrong wire types, unknown
//! fields, samples preceding the tables they point into.

#![allow(dead_code)]

use ev_flate::{gzip_compress, CompressionLevel};
use ev_test::Rng;
use ev_wire::Writer;

/// Emits a location message; `lines` pairs are (function_id, line).
pub fn write_location(w: &mut Writer, id: u64, mapping_id: u64, address: u64, lines: &[(u64, i64)]) {
    w.write_message_with(4, |m| {
        m.write_uint64(1, id);
        if mapping_id != 0 {
            m.write_uint64(2, mapping_id);
        }
        if address != 0 {
            m.write_uint64(3, address);
        }
        for &(function_id, line) in lines {
            m.write_message_with(4, |lm| {
                lm.write_uint64(1, function_id);
                lm.write_int64(2, line);
            });
        }
    });
}

/// Emits a sample message, packed or unpacked per flag.
pub fn write_sample(w: &mut Writer, location_ids: &[u64], values: &[i64], packed: bool) {
    w.write_message_with(2, |m| {
        if packed {
            m.write_packed_uint64(1, location_ids);
            m.write_packed_int64(2, values);
        } else {
            for &id in location_ids {
                m.write_uint64(1, id);
            }
            for &v in values {
                m.write_int64(2, v);
            }
        }
    });
}

/// Fully structured synthetic profile: random table sizes, random id
/// assignment (dense, offset, duplicated, or huge-sparse), samples
/// drawn from the location pool with occasional dangling ids, random
/// section order, random packed/unpacked encoding, optional gzip.
pub fn synth_pprof(rng: &mut Rng, size: usize) -> Vec<u8> {
    let n_strings = rng.gen_range(0..(size + 2));
    let n_functions = rng.gen_range(0..(size + 1));
    let n_mappings = rng.gen_range(0..4usize);
    let n_locations = rng.gen_range(0..(size + 1));
    let n_types = rng.gen_range(0..3usize);
    let n_samples = rng.gen_range(0..(2 * size + 1));

    // Id assignment style exercises the dense/sparse IdIndex split and
    // the duplicate-id last-wins rule.
    let id_of = |rng: &mut Rng, i: usize| -> u64 {
        match rng.gen_range(0..10u32) {
            0 => rng.gen_range(1..(i as u64 + 2)),     // duplicates likely
            1 => (i as u64 + 1) * 1_000_003,           // sparse
            2 => rng.next_u64() | 1,                   // huge
            _ => i as u64 + 1,                         // dense from 1
        }
    };
    let str_idx = |rng: &mut Rng, n: usize| -> i64 {
        match rng.gen_range(0..8u32) {
            0 => -1,                                   // negative: clamps to 0
            1 => n as i64 + rng.gen_range(0..5u64) as i64, // out of range
            _ => rng.gen_range(0..(n as u64 + 1)) as i64,
        }
    };

    let mut w = Writer::new();
    let mut location_ids: Vec<u64> = Vec::new();

    // Sometimes emit samples before the tables they reference — the
    // forward-reference case the one-pass fixup exists for.
    let samples_first = rng.gen_bool(0.5);
    let emit_samples = |w: &mut Writer, rng: &mut Rng, location_ids: &[u64]| {
        for _ in 0..n_samples {
            let depth = rng.gen_range(0..9usize);
            let mut chain = Vec::with_capacity(depth);
            for _ in 0..depth {
                if !location_ids.is_empty() && rng.gen_bool(0.95) {
                    chain.push(location_ids[rng.gen_range(0..location_ids.len())]);
                } else {
                    // Dangling id: must yield the identical Schema
                    // error from both decoders.
                    chain.push(rng.next_u64());
                }
            }
            let n_vals = rng.gen_range(0..4usize);
            let values: Vec<i64> = (0..n_vals)
                .map(|_| rng.gen_range(0..1000u64) as i64 - 100)
                .collect();
            write_sample(w, &chain, &values, rng.gen_bool(0.8));
        }
    };

    for i in 0..n_locations {
        location_ids.push(id_of(rng, i));
    }

    if !samples_first {
        // Tables first: string table, types, mappings, functions, locations.
        for i in 0..n_strings {
            w.write_string(6, &format!("s{i}"));
        }
    }
    for _ in 0..n_types {
        w.write_message_with(1, |m| {
            m.write_int64(1, str_idx(rng, n_strings));
            m.write_int64(2, str_idx(rng, n_strings));
        });
    }
    if samples_first {
        emit_samples(&mut w, rng, &location_ids);
    }
    for i in 0..n_mappings {
        w.write_message_with(3, |m| {
            m.write_uint64(1, i as u64 + 1);
            m.write_int64(5, str_idx(rng, n_strings));
        });
    }
    for i in 0..n_functions {
        w.write_message_with(5, |m| {
            m.write_uint64(1, id_of(rng, i));
            m.write_int64(2, str_idx(rng, n_strings));
            m.write_int64(4, str_idx(rng, n_strings));
        });
    }
    for (i, &id) in location_ids.iter().enumerate() {
        let n_lines = rng.gen_range(0..4usize);
        let lines: Vec<(u64, i64)> = (0..n_lines)
            .map(|_| {
                let fi = rng.gen_range(0..(n_functions + 1));
                (id_of(rng, fi), rng.gen_range(0..500u64) as i64 - 5)
            })
            .collect();
        let mapping_id = rng.gen_range(0..(n_mappings as u64 + 2));
        write_location(&mut w, id, mapping_id, (i as u64) << 4, &lines);
    }
    if samples_first {
        for i in 0..n_strings {
            w.write_string(6, &format!("s{i}"));
        }
    } else {
        emit_samples(&mut w, rng, &location_ids);
    }
    if rng.gen_bool(0.5) {
        w.write_int64(9, rng.next_u64() as i64);
    }
    // Unknown fields and wrong wire types for known fields, scattered
    // at the end (the walk must treat both as skippable).
    if rng.gen_bool(0.3) {
        w.write_uint64(4, rng.next_u64()); // location as varint: mismatched
        w.write_fixed64(6, 0xdeadbeef); // string table as fixed64: mismatched
        w.write_bytes(9, b"not a varint"); // time_nanos as bytes: mismatched
        w.write_uint64(15, 7); // unknown field
        w.write_fixed32(200, 42); // unknown field
    }

    let body = w.into_bytes();
    if rng.gen_bool(0.3) {
        gzip_compress(&body, CompressionLevel::Fast)
    } else {
        body
    }
}

/// Deep stacks over a small shared location pool: tens of frames per
/// sample, heavy path-prefix sharing — the edge-memo hot case.
pub fn synth_deep_stacks(rng: &mut Rng, size: usize) -> Vec<u8> {
    let n_locations = rng.gen_range(1..6usize);
    let mut w = Writer::new();
    w.write_message_with(1, |m| {
        m.write_int64(1, 1);
        m.write_int64(2, 2);
    });
    for i in 0..n_locations {
        write_location(
            &mut w,
            i as u64 + 1,
            0,
            0x1000 + i as u64,
            &[(i as u64 + 1, i as i64 * 10)],
        );
        w.write_message_with(5, |m| {
            m.write_uint64(1, i as u64 + 1);
            m.write_int64(2, 3 + i as i64);
        });
    }
    for _ in 0..(size + 1) {
        let depth = rng.gen_range(1..(8 * size + 2));
        let chain: Vec<u64> = (0..depth)
            .map(|_| rng.gen_range(0..n_locations as u64) + 1)
            .collect();
        write_sample(&mut w, &chain, &[rng.gen_range(0..50u64) as i64], true);
    }
    let mut strings = vec!["".to_owned(), "cpu".to_owned(), "nanoseconds".to_owned()];
    for i in 0..n_locations {
        strings.push(format!("fn_{i}"));
    }
    for s in &strings {
        w.write_string(6, s);
    }
    w.into_bytes()
}

/// Multi-sample-type profiles where sample value vectors are shorter,
/// equal to, or longer than the declared sample_type list.
pub fn synth_multi_type(rng: &mut Rng, size: usize) -> Vec<u8> {
    let n_types = rng.gen_range(1..(size + 2));
    let mut w = Writer::new();
    for i in 0..n_types {
        w.write_message_with(1, |m| {
            m.write_int64(1, 1 + 2 * i as i64);
            m.write_int64(2, 2 + 2 * i as i64);
        });
    }
    write_location(&mut w, 1, 0, 0xabc, &[(1, 1)]);
    w.write_message_with(5, |m| {
        m.write_uint64(1, 1);
        m.write_int64(2, 1);
    });
    for _ in 0..rng.gen_range(1..8usize) {
        let n_vals = rng.gen_range(0..(n_types + 3));
        let values: Vec<i64> = (0..n_vals).map(|_| rng.gen_range(0..9u64) as i64).collect();
        write_sample(&mut w, &[1], &values, rng.gen_bool(0.5));
    }
    let mut strings = vec![String::new()];
    for i in 0..n_types {
        strings.push(format!("metric_{i}"));
        strings.push(if i % 2 == 0 { "bytes".to_owned() } else { "nanoseconds".to_owned() });
    }
    for s in &strings {
        w.write_string(6, s);
    }
    w.into_bytes()
}

/// Empty and degenerate tables: no strings, no samples, empty
/// messages, locations without lines, mappings/functions that nothing
/// references, and every combination the size budget allows.
pub fn synth_degenerate(rng: &mut Rng, _size: usize) -> Vec<u8> {
    let mut w = Writer::new();
    if rng.gen_bool(0.5) {
        w.write_message_with(1, |_| {}); // empty ValueType
    }
    if rng.gen_bool(0.5) {
        w.write_message_with(2, |_| {}); // empty Sample (no locations, no values)
    }
    if rng.gen_bool(0.5) {
        w.write_message_with(3, |_| {}); // Mapping with id 0
    }
    if rng.gen_bool(0.5) {
        w.write_message_with(4, |_| {}); // Location with id 0, no lines
        if rng.gen_bool(0.5) {
            // A sample can legitimately reference location id 0 then.
            write_sample(&mut w, &[0], &[1], true);
        }
    }
    if rng.gen_bool(0.5) {
        w.write_message_with(5, |_| {}); // Function with id 0
    }
    if rng.gen_bool(0.3) {
        w.write_string(6, ""); // explicit empty first string
    }
    if rng.gen_bool(0.3) {
        // Duplicate location ids: last definition must win in both.
        write_location(&mut w, 7, 0, 0x100, &[]);
        write_location(&mut w, 7, 0, 0x200, &[]);
        write_sample(&mut w, &[7], &[5], rng.gen_bool(0.5));
    }
    w.into_bytes()
}

/// What [`synth_multi_batch`] plants past the first two replay
/// batches, where the one-pass decoder has already inserted batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LateFlaw {
    None,
    /// A sample naming a location id no table defines.
    DanglingLocation,
    /// A sample whose packed location ids run past its own payload.
    TruncatedPayload,
}

/// Frame steps the multi-batch fixtures hold at least: more than two
/// of the one-pass decoder's 2^18-step replay batches, so the replay
/// makes three.
pub const MULTI_BATCH_STEPS: usize = 5 << 17;

/// A profile whose sample replay spans three decoder batches:
/// locations of 8–24 inline frames each, so some thousands of samples
/// of up to a dozen locations make [`MULTI_BATCH_STEPS`] frame steps.
/// Samples share prefixes with recent ones, so later batches keep
/// landing on nodes earlier batches created. A flaw goes in the first
/// sample past two full batches. Returns the raw body and its frame
/// steps.
pub fn synth_multi_batch(rng: &mut Rng, flaw: LateFlaw) -> (Vec<u8>, usize) {
    let n_functions = 300u64;
    let n_locations = 200usize;
    let mut w = Writer::new();
    w.write_message_with(1, |m| {
        m.write_int64(1, 1);
        m.write_int64(2, 2);
    });
    let mut inline = Vec::with_capacity(n_locations);
    for i in 0..n_locations {
        let lines: Vec<(u64, i64)> = (0..rng.gen_range(8..25usize))
            .map(|_| {
                (
                    rng.gen_range(1..n_functions + 1),
                    rng.gen_range(1..90u64) as i64,
                )
            })
            .collect();
        inline.push(lines.len());
        write_location(&mut w, i as u64 + 1, 0, 0x4000 + 16 * i as u64, &lines);
    }
    for f in 1..=n_functions {
        w.write_message_with(5, |m| {
            m.write_uint64(1, f);
            m.write_int64(2, 3 + (f % 40) as i64);
            m.write_int64(4, 43 + (f % 7) as i64);
        });
    }
    // Outermost first while built; the wire wants leaf first.
    let mut chains: Vec<Vec<u64>> = Vec::new();
    let mut steps = 0usize;
    // The first sample past two full batches.
    let mut late = 0;
    while steps < MULTI_BATCH_STEPS {
        if steps <= 2 << 18 {
            late = chains.len() + 1;
        }
        let mut chain = match chains.len() {
            0 => Vec::new(),
            n => {
                let base = &chains[rng.gen_range(n.saturating_sub(64)..n)];
                base[..rng.gen_range(0..base.len() + 1)].to_vec()
            }
        };
        while chain.len() < 12 && (chain.len() < 2 || rng.gen_bool(0.6)) {
            chain.push(rng.gen_range(1..n_locations as u64 + 1));
        }
        steps += chain
            .iter()
            .map(|&id| inline[id as usize - 1])
            .sum::<usize>();
        chains.push(chain);
    }
    for (i, chain) in chains.iter().enumerate() {
        let leaf_first: Vec<u64> = chain.iter().rev().copied().collect();
        let value = [rng.gen_range(0..1000u64) as i64];
        match flaw {
            LateFlaw::DanglingLocation if i == late => {
                let mut ids = leaf_first.clone();
                ids.insert(ids.len() / 2, 1 << 40);
                write_sample(&mut w, &ids, &value, true);
            }
            LateFlaw::TruncatedPayload if i == late => {
                // Field 1, length-delimited, claiming 40 bytes of 3.
                w.write_bytes(2, &[0x0a, 40, 1, 2, 3]);
            }
            _ => write_sample(&mut w, &leaf_first, &value, rng.gen_bool(0.9)),
        }
    }
    let mut strings = vec!["".to_owned(), "cpu".to_owned(), "nanoseconds".to_owned()];
    strings.extend((0..40).map(|i| format!("pkg.fn{i}")));
    strings.extend((0..7).map(|i| format!("src/file{i}.go")));
    for s in &strings {
        w.write_string(6, s);
    }
    (w.into_bytes(), steps)
}

//! Golden round-trip tests over checked-in gzip'd pprof fixtures.
//!
//! Each fixture runs the full substrate stack — `ev-flate` gzip
//! inflate → `ev-wire` protobuf decode → EasyView profile — and is
//! pinned to golden numbers (node count, exact total bits), so any
//! change to the decoding pipeline that alters output is caught against
//! bytes that never change. The decoded profile must also survive a
//! native-format re-encode round trip and produce bit-identical views
//! through the cached path.
//!
//! Regenerate the fixtures (after an intentional generator change)
//! with:
//!
//! ```text
//! cargo test -p ev-bench --test golden_pprof -- --ignored regenerate
//! ```
//!
//! and update the golden constants from the test's output.

use ev_analysis::{profile_fingerprint, view_key, MetricView, ViewCache};
use ev_core::Profile;
use ev_flate::{gzip_decompress, is_gzip};
use ev_gen::{grpc_leak, synthetic::SyntheticSpec};
use std::path::PathBuf;

struct Golden {
    file: &'static str,
    nodes: usize,
    metric: &'static str,
    /// `total(metric).to_bits()` — exact, not approximate.
    total_bits: u64,
}

const GOLDENS: [Golden; 2] = [
    Golden {
        file: "synthetic_cpu.pb.gz",
        nodes: 2202,
        metric: "cpu",
        total_bits: 0x4162_fa83_a000_0000,
    },
    Golden {
        file: "grpc_leak.pb.gz",
        nodes: 10,
        metric: "inuse_space",
        total_bits: 0x419d_9803_7800_0000,
    },
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn fixture_sources() -> Vec<(&'static str, Vec<u8>)> {
    let synthetic = SyntheticSpec {
        samples: 2_000,
        seed: 11,
        ..SyntheticSpec::default()
    }
    .build_pprof();
    let leak = grpc_leak::snapshots(3, 11).pop().expect("snapshots");
    let leak_gz = ev_formats::pprof::write(&leak, ev_formats::pprof::WriteOptions::default());
    vec![
        ("synthetic_cpu.pb.gz", synthetic),
        ("grpc_leak.pb.gz", leak_gz),
    ]
}

#[test]
#[ignore = "writes tests/fixtures and prints golden constants"]
fn regenerate() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in fixture_sources() {
        std::fs::write(dir.join(name), &bytes).unwrap();
        let p = ev_formats::pprof::parse(&bytes).unwrap();
        let m = ev_core::MetricId::from_index(0);
        println!(
            "{name}: nodes={} metric={:?} total_bits={:#x} ({} bytes)",
            p.node_count(),
            p.metrics()[0].name,
            p.total(m).to_bits(),
            bytes.len()
        );
    }
    for (name, bytes) in negative_fixture_sources() {
        std::fs::write(dir.join(name), &bytes).unwrap();
        let outcome = match ev_formats::pprof::parse(&bytes) {
            Ok(p) => format!("parses: nodes={} metrics={}", p.node_count(), p.metrics().len()),
            Err(e) => format!("fails: {e}"),
        };
        println!(
            "{name}: crc32={:#010x} ({} bytes) {outcome}",
            ev_flate::crc32(&bytes),
            bytes.len()
        );
    }
}

fn load_fixture(golden: &Golden) -> (Vec<u8>, Profile) {
    let path = fixture_dir().join(golden.file);
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see regenerate()", path.display()));
    let profile = ev_formats::pprof::parse(&bytes).expect("fixture parses");
    (bytes, profile)
}

#[test]
fn fixtures_decode_to_golden_profiles() {
    for golden in &GOLDENS {
        let (bytes, profile) = load_fixture(golden);
        assert!(is_gzip(&bytes), "{}: fixture is gzip'd", golden.file);
        // The inflate and wire-decode stages are separable: inflating
        // first and decoding the raw body yields the same profile.
        let raw = gzip_decompress(&bytes).expect("fixture inflates");
        let from_raw = ev_formats::pprof::parse(&raw).expect("raw body decodes");
        assert_eq!(
            ev_formats::easyview::write(&from_raw),
            ev_formats::easyview::write(&profile),
            "{}",
            golden.file
        );

        assert_eq!(profile.node_count(), golden.nodes, "{}", golden.file);
        let m = profile
            .metric_by_name(golden.metric)
            .unwrap_or_else(|| panic!("{}: metric {}", golden.file, golden.metric));
        assert_eq!(
            profile.total(m).to_bits(),
            golden.total_bits,
            "{}: total {} != golden",
            golden.file,
            profile.total(m)
        );
        profile.validate().unwrap();
    }
}

#[test]
fn fixtures_round_trip_through_native_format() {
    for golden in &GOLDENS {
        let (_, profile) = load_fixture(golden);
        let native = ev_formats::easyview::write(&profile);
        let back = ev_formats::easyview::parse(&native).expect("native parses");
        // Re-encoding the re-decoded profile is byte-stable.
        assert_eq!(ev_formats::easyview::write(&back), native, "{}", golden.file);
        assert_eq!(back.node_count(), profile.node_count(), "{}", golden.file);
    }
}

/// CRC-32 of `ev_core::format::to_bytes` for every fixture that decodes,
/// taken from the per-node storage the columnar CCT replaced. How a
/// profile is stored must never move the bytes it serializes to.
const NATIVE_CRCS: [(&str, u32); 5] = [
    ("grpc_leak.pb.gz", 0x20f3_de1d),
    ("multi_member.pb.gz", 0x20f3_de1d),
    ("odd_deep_nesting.pb", 0xf27d_462c),
    ("odd_degenerate_tables.pb", 0xf425_2000),
    ("synthetic_cpu.pb.gz", 0x42e9_ebd3),
];

#[test]
fn fixtures_serialize_to_pinned_native_bytes() {
    let mut decoded = Vec::new();
    for entry in std::fs::read_dir(fixture_dir()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if let Ok(profile) = ev_formats::pprof::parse(&std::fs::read(&path).unwrap()) {
            let crc = ev_flate::crc32(&ev_core::format::to_bytes(&profile));
            decoded.push((name, crc));
        }
    }
    decoded.sort();
    let pinned: Vec<(String, u32)> = NATIVE_CRCS
        .iter()
        .map(|&(name, crc)| (name.to_owned(), crc))
        .collect();
    assert_eq!(decoded, pinned);
}

/// The views themselves are pinned to the code they replaced in
/// `tests/open_oracle.rs` (`golden_fixture_views_match_oracle`).
#[test]
fn fixtures_views_stable_across_cached_paths() {
    for golden in &GOLDENS {
        let (bytes, profile) = load_fixture(golden);
        let m = profile.metric_by_name(golden.metric).unwrap();
        let seq = MetricView::compute(&profile, m);
        // Two independent parses of the same bytes fingerprint alike, so
        // a view computed for one is a cache hit for the other.
        let reparsed = ev_formats::pprof::parse(&bytes).unwrap();
        assert_eq!(profile_fingerprint(&profile), profile_fingerprint(&reparsed));
        let key = view_key(&profile, m, &["top_down"]);
        assert_eq!(key, view_key(&reparsed, m, &["top_down"]));
        let cache: ViewCache<u64> = ViewCache::new(4);
        cache.get_or_insert_with(key, || seq.total().to_bits());
        let hit = cache.get_or_insert_with(view_key(&reparsed, m, &["top_down"]), || {
            panic!("must be served from cache")
        });
        assert_eq!(*hit, seq.total().to_bits());
        assert_eq!(cache.stats().hits, 1);
    }
}

// ---------------------------------------------------------------------
// Malformed-wire robustness: pinned-digest negative fixtures.
//
// Each checked-in fixture is either deliberately corrupt (truncated or
// overlong varints, length claims past the input, invalid UTF-8,
// dangling location ids, forbidden field numbers and wire types) or
// structurally odd-but-legal (deep unknown nesting, out-of-range string
// indices, duplicate ids). The one-pass decoder and the two-pass
// reference must produce the *identical* outcome for every one — a
// typed error or a parse, never a panic or runaway allocation — and
// the fixture bytes themselves are pinned by crc32 so the cases can
// never silently drift.

/// What both decoders must do with a negative fixture.
enum Expect {
    /// Both return `Ok`; pinned node and metric counts.
    Parses { nodes: usize, metrics: usize },
    /// Both return the same error with this exact display.
    Fails { message: &'static str },
}

struct Negative {
    file: &'static str,
    crc32: u32,
    expect: Expect,
}

const NEGATIVES: [Negative; 9] = [
    Negative {
        file: "bad_truncated_varint.pb",
        crc32: 0x94c154d2,
        expect: Expect::Fails {
            message: "container error: unexpected end of input",
        },
    },
    Negative {
        file: "bad_overlong_varint.pb",
        crc32: 0x14274602,
        expect: Expect::Fails {
            message: "container error: varint exceeds 10 bytes",
        },
    },
    Negative {
        file: "bad_length_overrun.pb",
        crc32: 0x2ec0bf38,
        expect: Expect::Fails {
            message: "container error: length 268435455 exceeds remaining input 0",
        },
    },
    Negative {
        file: "bad_string_utf8.pb",
        crc32: 0xf8ddc56a,
        expect: Expect::Fails {
            message: "container error: string field is not valid utf-8",
        },
    },
    Negative {
        file: "bad_unknown_location.pb",
        crc32: 0x4432b760,
        expect: Expect::Fails {
            message: "schema error: sample references unknown location 99",
        },
    },
    Negative {
        file: "bad_zero_field.pb",
        crc32: 0xd202ef8d,
        expect: Expect::Fails {
            message: "container error: field number must be nonzero",
        },
    },
    Negative {
        file: "bad_group_wiretype.pb",
        crc32: 0x45d03605,
        expect: Expect::Fails {
            message: "container error: invalid wire type 3",
        },
    },
    Negative {
        file: "odd_deep_nesting.pb",
        crc32: 0x840cbeea,
        expect: Expect::Parses { nodes: 1, metrics: 0 },
    },
    Negative {
        file: "odd_degenerate_tables.pb",
        crc32: 0xac38ca6f,
        expect: Expect::Parses { nodes: 2, metrics: 1 },
    },
];

fn negative_fixture_sources() -> Vec<(&'static str, Vec<u8>)> {
    use ev_wire::Writer;
    let mut out: Vec<(&'static str, Vec<u8>)> = Vec::new();

    // Field 9 (time_nanos, varint) truncated on a continuation byte.
    out.push(("bad_truncated_varint.pb", vec![0x48, 0x80]));

    // Eleven continuation bytes: past the 10-byte u64 maximum.
    let mut overlong = vec![0x48];
    overlong.extend(std::iter::repeat_n(0x80, 11));
    out.push(("bad_overlong_varint.pb", overlong));

    // Size-cap abuse: a string-table entry claiming 256 MiB with zero
    // payload bytes behind it — must error without allocating.
    let mut huge = vec![0x32];
    ev_wire::encode_varint(0x0fff_ffff, &mut huge);
    out.push(("bad_length_overrun.pb", huge));

    // Invalid UTF-8 in the string table.
    let mut w = Writer::new();
    w.write_bytes(6, &[0xff, 0xfe, 0xfd]);
    out.push(("bad_string_utf8.pb", w.into_bytes()));

    // A sample referencing a location never defined.
    let mut w = Writer::new();
    w.write_message_with(2, |m| {
        m.write_packed_uint64(1, &[99]);
        m.write_packed_int64(2, &[1]);
    });
    w.write_string(6, "");
    out.push(("bad_unknown_location.pb", w.into_bytes()));

    // Field number zero is forbidden by protobuf.
    out.push(("bad_zero_field.pb", vec![0x00]));

    // Deprecated group wire type (3).
    out.push(("bad_group_wiretype.pb", vec![0x0b]));

    // 100-deep nested unknown LEN messages: field skipping is
    // iterative (length-based), so this parses without recursing.
    let mut nested = Vec::new();
    for _ in 0..100 {
        let mut w = Writer::new();
        w.write_bytes(8, &nested);
        nested = w.into_bytes();
    }
    out.push(("odd_deep_nesting.pb", nested));

    // Out-of-range and negative string indices, duplicate location ids
    // (last definition wins), dangling mapping references, more sample
    // values than sample types, unknown fields, and known fields on
    // the wrong wire type — all legal-but-odd, all must parse.
    let mut w = Writer::new();
    w.write_message_with(1, |m| {
        m.write_int64(1, 1 << 40); // type name far out of range -> "samples"
        m.write_int64(2, -3); // negative unit index -> clamps to ""
    });
    w.write_message_with(4, |m| {
        m.write_uint64(1, 7);
        m.write_uint64(2, 12345); // dangling mapping id
    });
    w.write_message_with(4, |m| {
        m.write_uint64(1, 7); // duplicate id: this definition wins
        m.write_uint64(3, 0xabc);
    });
    w.write_message_with(2, |m| {
        m.write_packed_uint64(1, &[7]);
        m.write_packed_int64(2, &[2, 3]); // second value has no metric
    });
    w.write_uint64(4, 9); // location on varint wire type: skipped
    w.write_fixed64(6, 0xdead); // string table on fixed64: skipped
    w.write_uint64(1 << 20, 5); // unknown high field number
    out.push(("odd_degenerate_tables.pb", w.into_bytes()));

    out
}

#[test]
fn negative_fixtures_yield_identical_typed_outcomes() {
    for negative in &NEGATIVES {
        let path = fixture_dir().join(negative.file);
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("missing fixture {} ({e}); see regenerate()", path.display())
        });
        assert_eq!(
            ev_flate::crc32(&bytes),
            negative.crc32,
            "{}: fixture bytes drifted",
            negative.file
        );
        let one = ev_formats::pprof::parse(&bytes);
        let reference = ev_formats::pprof::parse_reference(&bytes);
        assert_eq!(one, reference, "{}: decoders disagree", negative.file);
        match &negative.expect {
            Expect::Parses { nodes, metrics } => {
                let p = one.unwrap_or_else(|e| panic!("{}: {e}", negative.file));
                assert_eq!(p.node_count(), *nodes, "{}", negative.file);
                assert_eq!(p.metrics().len(), *metrics, "{}", negative.file);
                p.validate().unwrap();
            }
            Expect::Fails { message } => {
                let err = one.expect_err(negative.file);
                assert_eq!(&err.to_string(), message, "{}", negative.file);
            }
        }
    }
}

#[test]
fn every_fixture_decodes_identically_via_reference() {
    // Sweep the whole fixture directory — positive goldens, the
    // multi-member gzip file, and every negative — asserting the
    // one-pass and reference decoders agree byte for byte.
    let mut seen = 0;
    for entry in std::fs::read_dir(fixture_dir()).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        let one = ev_formats::pprof::parse(&bytes);
        let reference = ev_formats::pprof::parse_reference(&bytes);
        assert_eq!(one, reference, "{}", path.display());
        seen += 1;
    }
    assert!(seen >= GOLDENS.len() + NEGATIVES.len(), "fixture sweep saw {seen} files");
}

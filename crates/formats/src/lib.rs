//! `ev-formats` — EasyView's data-binding layer (paper §IV-B).
//!
//! Profilers have their own output formats, built on different
//! technologies (protobuf for pprof/perf/Cloud Profiler, JSON for the
//! Chrome profiler/speedscope/pyinstrument/Scalene, XML for HPCToolkit,
//! plain text for `perf script` and folded stacks). This crate translates
//! each of them into `ev-core`'s generic representation through a *format
//! converter*, the mechanism the paper uses to support existing profilers
//! "without major changes" to them.
//!
//! Supported formats:
//!
//! | Format | Module | Input technology |
//! |---|---|---|
//! | EasyView native | [`easyview`] | protobuf (`ev-wire`) |
//! | pprof (Go, Cloud Profiler, perf via `perf_to_profile`) | [`pprof`] | gzip'd protobuf |
//! | `perf script` output | [`perf_script`] | text |
//! | folded/collapsed stacks (FlameGraph tooling) | [`collapsed`] | text |
//! | Chrome trace events | [`chrome`] | JSON |
//! | speedscope | [`speedscope`] | JSON |
//! | pyinstrument | [`pyinstrument`] | JSON |
//! | Scalene | [`scalene`] | JSON |
//! | HPCToolkit experiment databases | [`hpctoolkit`] | XML |
//!
//! [`detect`] sniffs a byte buffer and [`parse_auto`] dispatches to the
//! right converter, which is how the EasyView front end opens arbitrary
//! profile files.
//!
//! # Examples
//!
//! ```
//! use ev_formats::{detect, parse_auto, Format};
//!
//! # fn main() -> Result<(), ev_formats::FormatError> {
//! let folded = b"main;compute 90\nmain;io 10\n";
//! assert_eq!(detect(folded), Format::Collapsed);
//! let profile = parse_auto(folded)?;
//! assert_eq!(profile.node_count(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod chrome;
pub mod collapsed;
pub mod easyview;
pub mod hpctoolkit;
pub mod perf_script;
pub mod pprof;
pub mod pyinstrument;
pub mod scalene;
pub mod speedscope;
pub mod trace;

use ev_core::Profile;
use std::error::Error;
use std::fmt;

/// A profile file format EasyView can bind to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// EasyView's native binary format.
    EasyView,
    /// pprof protobuf, optionally gzip-compressed.
    Pprof,
    /// `perf script` text output.
    PerfScript,
    /// Folded stack lines (`a;b;c 42`).
    Collapsed,
    /// Chrome trace-event JSON.
    ChromeTrace,
    /// speedscope JSON.
    Speedscope,
    /// pyinstrument session JSON.
    Pyinstrument,
    /// Scalene profile JSON.
    Scalene,
    /// HPCToolkit `experiment.xml`.
    HpcToolkit,
    /// Unrecognized input.
    Unknown,
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Format::EasyView => "easyview",
            Format::Pprof => "pprof",
            Format::PerfScript => "perf-script",
            Format::Collapsed => "collapsed",
            Format::ChromeTrace => "chrome-trace",
            Format::Speedscope => "speedscope",
            Format::Pyinstrument => "pyinstrument",
            Format::Scalene => "scalene",
            Format::HpcToolkit => "hpctoolkit",
            Format::Unknown => "unknown",
        };
        f.write_str(name)
    }
}

/// Errors produced while converting foreign profile data.
#[derive(Debug, Clone, PartialEq)]
pub enum FormatError {
    /// The input could not be assigned to any known format.
    UnknownFormat,
    /// Structured data failed to decode at the container level.
    Container(String),
    /// The data decoded but violated the format's schema.
    Schema(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::UnknownFormat => write!(f, "unrecognized profile format"),
            FormatError::Container(msg) => write!(f, "container error: {msg}"),
            FormatError::Schema(msg) => write!(f, "schema error: {msg}"),
        }
    }
}

impl Error for FormatError {}

impl From<ev_flate::FlateError> for FormatError {
    fn from(err: ev_flate::FlateError) -> FormatError {
        FormatError::Container(err.to_string())
    }
}

impl From<ev_wire::WireError> for FormatError {
    fn from(err: ev_wire::WireError) -> FormatError {
        FormatError::Container(err.to_string())
    }
}

impl From<ev_json::JsonError> for FormatError {
    fn from(err: ev_json::JsonError) -> FormatError {
        FormatError::Container(err.to_string())
    }
}

impl From<ev_xml::XmlError> for FormatError {
    fn from(err: ev_xml::XmlError) -> FormatError {
        FormatError::Container(err.to_string())
    }
}

impl From<ev_core::CoreError> for FormatError {
    fn from(err: ev_core::CoreError) -> FormatError {
        FormatError::Schema(err.to_string())
    }
}

/// Sniffs the format of a profile byte buffer.
///
/// Detection looks at magic bytes first (EasyView, gzip → pprof), then at
/// structural cues in text formats. It never reads more than a prefix.
pub fn detect(data: &[u8]) -> Format {
    if ev_core::format::is_easyview(data) {
        return Format::EasyView;
    }
    if ev_flate::is_gzip(data) {
        // pprof files are gzip'd protobuf, and gzip input is always
        // decoded as pprof: nothing decompresses it to re-detect
        // another format.
        return Format::Pprof;
    }
    let text_prefix = String::from_utf8_lossy(&data[..data.len().min(4096)]);
    let trimmed = text_prefix.trim_start();
    if trimmed.starts_with("<?xml") || trimmed.starts_with("<HPCToolkit") {
        return Format::HpcToolkit;
    }
    if trimmed.starts_with('{') || trimmed.starts_with('[') {
        if trimmed.contains("\"$schema\"") && trimmed.contains("speedscope") {
            return Format::Speedscope;
        }
        if trimmed.contains("\"traceEvents\"")
            || (trimmed.starts_with('[') && trimmed.contains("\"ph\""))
        {
            return Format::ChromeTrace;
        }
        if trimmed.contains("\"root_frame\"") {
            return Format::Pyinstrument;
        }
        if trimmed.contains("\"files\"") && trimmed.contains("\"n_cpu_percent") {
            return Format::Scalene;
        }
        return Format::Unknown;
    }
    // Raw (uncompressed) pprof protobuf tends to start with field 1
    // tags; distinguish from text by non-ascii content.
    if !data.is_empty() && data.iter().take(64).any(|&b| b < 0x09) {
        return Format::Pprof;
    }
    if collapsed::looks_like(&text_prefix) {
        return Format::Collapsed;
    }
    if perf_script::looks_like(&text_prefix) {
        return Format::PerfScript;
    }
    Format::Unknown
}

/// Detects the format of `data` and converts it to a [`Profile`].
///
/// # Errors
///
/// Returns [`FormatError::UnknownFormat`] if no converter claims the
/// input, or the converter's own error otherwise.
pub fn parse_auto(data: &[u8]) -> Result<Profile, FormatError> {
    parse_auto_with(data, ev_flate::ExecPolicy::SEQUENTIAL)
}

/// Like [`parse_auto`], with an execution policy for the one route that
/// uses it: gzip'd pprof at or above [`STREAM_SIZE_THRESHOLD`], whose
/// streaming decoder inflates on an `ev-par` pipeline thread ahead of
/// the wire walk. Every other input decodes on the calling thread.
/// Output is bit-identical at any thread count.
///
/// # Errors
///
/// Same conditions as [`parse_auto`].
pub fn parse_auto_with(
    data: &[u8],
    policy: ev_flate::ExecPolicy,
) -> Result<Profile, FormatError> {
    let mut profile = match detect(data) {
        Format::EasyView => easyview::parse(data),
        Format::Pprof if ev_flate::is_gzip(data) && data.len() >= STREAM_SIZE_THRESHOLD => {
            pprof::parse_streaming_with(data, policy, ev_flate::DEFAULT_CHUNK_SIZE)
        }
        Format::Pprof => pprof::parse(data),
        Format::PerfScript => {
            perf_script::parse(&String::from_utf8_lossy(data))
        }
        Format::Collapsed => collapsed::parse(&String::from_utf8_lossy(data)),
        Format::ChromeTrace => chrome::parse(&String::from_utf8_lossy(data)),
        Format::Speedscope => speedscope::parse(&String::from_utf8_lossy(data)),
        Format::Pyinstrument => pyinstrument::parse(&String::from_utf8_lossy(data)),
        Format::Scalene => scalene::parse(&String::from_utf8_lossy(data)),
        Format::HpcToolkit => hpctoolkit::parse(&String::from_utf8_lossy(data)),
        Format::Unknown => Err(FormatError::UnknownFormat),
    }?;
    // Every converter's output reaches readers finished.
    profile.finish();
    Ok(profile)
}

/// Compressed sizes at or above this route gzip'd pprof input through
/// the bounded-memory streaming decoder in [`parse_auto_with`]. Below
/// it the buffered one-pass decoder wins: it inflates and walks the
/// input once and leaves sample payloads as borrowed slices into the
/// decompressed body, where the streaming decoder re-inflates and
/// re-walks the source in a second pass to replay them. The whole body
/// comfortably fits in memory anyway. 64 MiB compressed is roughly
/// half a GiB decompressed at typical pprof ratios — the point where
/// holding the body *and* the tables starts to hurt.
pub const STREAM_SIZE_THRESHOLD: usize = 64 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_easyview() {
        let bytes = ev_core::format::to_bytes(&Profile::new("x"));
        assert_eq!(detect(&bytes), Format::EasyView);
    }

    #[test]
    fn detect_gzip_as_pprof() {
        let gz = ev_flate::gzip_compress(b"anything", ev_flate::CompressionLevel::Store);
        assert_eq!(detect(&gz), Format::Pprof);
    }

    #[test]
    fn detect_text_formats() {
        assert_eq!(detect(b"main;a;b 10\nmain;c 5\n"), Format::Collapsed);
        assert_eq!(detect(b"<?xml version=\"1.0\"?><HPCToolkitExperiment/>"), Format::HpcToolkit);
        assert_eq!(
            detect(br#"{"traceEvents": []}"#),
            Format::ChromeTrace
        );
        assert_eq!(
            detect(br#"{"$schema": "https://www.speedscope.app/file-format-schema.json"}"#),
            Format::Speedscope
        );
        assert_eq!(
            detect(br#"{"root_frame": {"function": "main"}}"#),
            Format::Pyinstrument
        );
        assert_eq!(detect(b"garbage that is nothing"), Format::Unknown);
        assert_eq!(detect(b""), Format::Unknown);
    }

    #[test]
    fn detect_perf_script() {
        let text = b"prog 1 1.0: 5 cycles:\n\tdeadbeef f+0x1 (m)\n\n";
        assert_eq!(detect(text), Format::PerfScript);
        let p = parse_auto(text).unwrap();
        assert_eq!(p.meta().profiler, "perf");
    }

    #[test]
    fn parse_auto_roundtrips_native_and_pprof() {
        let mut p = Profile::new("auto");
        let m = p.add_metric(ev_core::MetricDescriptor::new(
            "cpu",
            ev_core::MetricUnit::Count,
            ev_core::MetricKind::Exclusive,
        ));
        p.add_sample(&[ev_core::Frame::function("f")], &[(m, 3.0)]);
        let native = ev_core::format::to_bytes(&p);
        assert_eq!(parse_auto(&native).unwrap(), p);
        let pprof = pprof::write(&p, pprof::WriteOptions::default());
        let q = parse_auto(&pprof).unwrap();
        assert_eq!(q.node_count(), p.node_count());
    }

    #[test]
    fn parse_auto_unknown_errors() {
        assert_eq!(
            parse_auto(b"garbage that is nothing").unwrap_err(),
            FormatError::UnknownFormat
        );
    }

    #[test]
    fn format_display() {
        assert_eq!(Format::Pprof.to_string(), "pprof");
        assert_eq!(Format::HpcToolkit.to_string(), "hpctoolkit");
    }

    mod fuzz {
        use super::super::*;
        use ev_test::prelude::*;

        property! {
            #![cases(64)]

            fn parse_auto_never_panics(data in vec(any_u8(), 0..256)) {
                let _ = parse_auto(&data);
            }

            fn every_converter_survives_arbitrary_text(s in string_printable(0..257)) {
                let _ = collapsed::parse(&s);
                let _ = perf_script::parse(&s);
                let _ = chrome::parse(&s);
                let _ = speedscope::parse(&s);
                let _ = pyinstrument::parse(&s);
                let _ = scalene::parse(&s);
                let _ = hpctoolkit::parse(&s);
            }

            fn pprof_parser_survives_arbitrary_bytes(data in vec(any_u8(), 0..256)) {
                if let Ok(p) = pprof::parse(&data) {
                    p.validate().unwrap();
                }
            }
        }
    }
}

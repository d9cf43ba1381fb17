//! The identity binding: EasyView's own binary format.
//!
//! Exists so [`crate::parse_auto`] has a uniform converter per format and
//! so tools that already emit the native format (the paper's "direct
//! output" path: DrCCTProf, JXPerf) go through the same entry point.

use crate::FormatError;
use ev_core::Profile;

/// Parses an EasyView-native profile.
///
/// # Errors
///
/// Propagates format errors from `ev_core::format::from_bytes`.
pub fn parse(data: &[u8]) -> Result<Profile, FormatError> {
    let _span = ev_trace::span("convert.easyview");
    Ok(ev_core::format::from_bytes(data)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit};

    #[test]
    fn roundtrip_via_converter() {
        let mut p = Profile::new("identity");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(&[Frame::function("main")], &[(m, 1.0)]);
        let bytes = ev_core::format::to_bytes(&p);
        assert_eq!(parse(&bytes).unwrap(), p);
    }

    #[test]
    fn garbage_is_schema_error() {
        assert!(parse(b"not a profile").is_err());
    }
}

//! The EasyView binary profile format.
//!
//! The paper expresses the generic representation "in a Protocol Buffer
//! schema" (§IV-A, Fig. 2). This module is the hand-rolled equivalent of
//! the code `protoc` would generate for that schema, built on the
//! `ev-wire` codec. The layout is a 5-byte header (`EVPF` magic + format
//! version) followed by one protobuf message:
//!
//! ```text
//! message Profile {
//!   repeated string string_table = 1;   // index = StringId
//!   repeated Metric metrics      = 2;   // index = MetricId
//!   repeated Node   nodes        = 3;   // index = NodeId, parents first
//!   repeated Link   links        = 4;
//!   Meta            meta         = 5;
//! }
//! message Metric { string name = 1; uint64 unit = 2; uint64 kind = 3;
//!                  string description = 4; }
//! message Node   { uint64 parent_plus_1 = 1; uint64 kind = 2;
//!                  uint64 name = 3; uint64 module = 4; uint64 file = 5;
//!                  uint64 line = 6; uint64 address = 7;
//!                  repeated uint64 metric_ids = 8 [packed];
//!                  repeated double values = 9 [packed]; }
//! message Link   { uint64 kind = 1;
//!                  repeated uint64 endpoints = 2 [packed];
//!                  repeated uint64 metric_ids = 3 [packed];
//!                  repeated double values = 4 [packed]; }
//! message Meta   { string name = 1; string profiler = 2;
//!                  string description = 3; uint64 timestamp = 4; }
//! ```
//!
//! Per proto3 convention, default values (empty strings, zeros) are not
//! emitted, and unknown fields are skipped on read — both directions of
//! schema evolution work.

use crate::frame::{ContextKind, FrameRef};
use crate::link::{ContextLink, LinkKind};
use crate::metric::{MetricDescriptor, MetricId, MetricKind, MetricUnit};
use crate::profile::{NodeId, Profile, ProfileMeta};
use crate::string_table::{StringId, StringTable};
use crate::CoreError;
use ev_wire::{Reader, WireType, Writer};

/// Magic bytes identifying an EasyView profile file.
pub const MAGIC: &[u8; 4] = b"EVPF";
/// Current format version.
pub const VERSION: u8 = 1;

/// Returns `true` if `data` begins with the EasyView magic.
pub fn is_easyview(data: &[u8]) -> bool {
    data.len() >= 4 && &data[..4] == MAGIC
}

/// Serializes a profile to the EasyView binary format.
///
/// # Examples
///
/// ```
/// use ev_core::{format, Profile};
///
/// let p = Profile::new("roundtrip");
/// let bytes = format::to_bytes(&p);
/// assert!(format::is_easyview(&bytes));
/// assert_eq!(format::from_bytes(&bytes).unwrap(), p);
/// ```
pub fn to_bytes(profile: &Profile) -> Vec<u8> {
    let _span = ev_trace::span("wire.encode");
    let mut w = Writer::with_capacity(profile.node_count() * 24 + 64);
    // Header.
    let mut out = Vec::with_capacity(w.len() + 5);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);

    for s in profile.strings().iter() {
        w.write_string(1, s);
    }
    for metric in profile.metrics() {
        w.write_message_with(2, |m| {
            if !metric.name.is_empty() {
                m.write_string(1, &metric.name);
            }
            if metric.unit.to_code() != 0 {
                m.write_uint64(2, metric.unit.to_code());
            }
            if metric.kind.to_code() != 0 {
                m.write_uint64(3, metric.kind.to_code());
            }
            if !metric.description.is_empty() {
                m.write_string(4, &metric.description);
            }
        });
    }
    let mut ids: Vec<u64> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    for id in profile.node_ids() {
        let node = profile.node(id);
        w.write_message_with(3, |m| {
            if let Some(parent) = node.parent() {
                m.write_uint64(1, parent.index() as u64 + 1);
            }
            let frame = node.frame();
            if frame.kind.to_code() != 0 {
                m.write_uint64(2, frame.kind.to_code());
            }
            if frame.name != StringId::EMPTY {
                m.write_uint64(3, frame.name.index() as u64);
            }
            if frame.module != StringId::EMPTY {
                m.write_uint64(4, frame.module.index() as u64);
            }
            if frame.file != StringId::EMPTY {
                m.write_uint64(5, frame.file.index() as u64);
            }
            if frame.line != 0 {
                m.write_uint64(6, u64::from(frame.line));
            }
            if frame.address != 0 {
                m.write_uint64(7, frame.address);
            }
            ids.clear();
            vals.clear();
            for (metric, value) in node.values() {
                ids.push(metric.index() as u64);
                vals.push(value);
            }
            if !ids.is_empty() {
                m.write_packed_uint64(8, &ids);
                m.write_packed_double(9, &vals);
            }
        });
    }
    for link in profile.links() {
        w.write_message_with(4, |m| {
            if link.kind().to_code() != 0 {
                m.write_uint64(1, link.kind().to_code());
            }
            let endpoints: Vec<u64> =
                link.endpoints().iter().map(|n| n.index() as u64).collect();
            m.write_packed_uint64(2, &endpoints);
            if !link.values().is_empty() {
                let ids: Vec<u64> = link.values().iter().map(|&(id, _)| id.index() as u64).collect();
                let vals: Vec<f64> = link.values().iter().map(|&(_, v)| v).collect();
                m.write_packed_uint64(3, &ids);
                m.write_packed_double(4, &vals);
            }
        });
    }
    let meta = profile.meta();
    w.write_message_with(5, |m| {
        if !meta.name.is_empty() {
            m.write_string(1, &meta.name);
        }
        if !meta.profiler.is_empty() {
            m.write_string(2, &meta.profiler);
        }
        if !meta.description.is_empty() {
            m.write_string(3, &meta.description);
        }
        if meta.timestamp_nanos != 0 {
            m.write_uint64(4, meta.timestamp_nanos);
        }
    });

    out.extend_from_slice(w.as_bytes());
    out
}

/// Deserializes a profile from the EasyView binary format, validating
/// structural invariants.
///
/// # Errors
///
/// Returns [`CoreError::Format`] on a missing/unknown header, wire-level
/// corruption, or invariant violations (dangling ids, cyclic parents…).
pub fn from_bytes(data: &[u8]) -> Result<Profile, CoreError> {
    let _span = ev_trace::span("wire.decode");
    if !is_easyview(data) {
        return Err(CoreError::Format("missing EVPF magic".to_owned()));
    }
    if data.len() < 5 {
        return Err(CoreError::Format("truncated header".to_owned()));
    }
    let version = data[4];
    if version != VERSION {
        return Err(CoreError::Format(format!("unsupported version {version}")));
    }
    let mut r = Reader::new(&data[5..]);

    let mut strings: Vec<String> = Vec::new();
    let mut metrics: Vec<MetricDescriptor> = Vec::new();
    let mut raw_nodes: Vec<RawNode> = Vec::new();
    // Every node's metric ids and values, back to back; each RawNode
    // keeps its run lengths.
    let mut metric_ids: Vec<u64> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut links: Vec<ContextLink> = Vec::new();
    let mut meta = ProfileMeta::default();

    while let Some((field, ty)) = r.read_tag()? {
        match field {
            1 => strings.push(r.read_string()?.to_owned()),
            2 => metrics.push(read_metric(&mut r.read_message()?)?),
            3 => raw_nodes.push(read_node(
                &mut r.read_message()?,
                &mut metric_ids,
                &mut values,
            )?),
            4 => links.push(read_link(&mut r.read_message()?)?),
            5 => meta = read_meta(&mut r.read_message()?)?,
            _ => r.skip(ty)?,
        }
    }

    // Rebuild the string table; intern() preserves indices because the
    // serialized order is id order and index 0 is the empty string.
    if strings.first().map(String::as_str) != Some("") {
        return Err(CoreError::Format(
            "string table must start with the empty string".to_owned(),
        ));
    }
    let count = strings.len();
    let table = StringTable::from_strings(strings);
    if table.len() != count {
        return Err(CoreError::Format("duplicate strings in table".to_owned()));
    }

    if raw_nodes.is_empty() {
        return Err(CoreError::Format("profile has no nodes".to_owned()));
    }
    // As many as `Profile::add_metric` registers; a metric id past them
    // would not fit a `MetricId`.
    if metrics.len() > usize::from(u16::MAX) {
        return Err(CoreError::Format(format!(
            "{} metrics, at most {} allowed",
            metrics.len(),
            u16::MAX
        )));
    }

    // Append the nodes straight into the profile's columns.
    let metric_count = metrics.len() as u64;
    let mut profile = Profile::from_parts(table, metrics, links, meta);
    let (mut ids, mut vals) = (metric_ids.iter(), values.iter());
    for (i, raw) in raw_nodes.iter().enumerate() {
        let parent = match raw.parent_plus_1 {
            0 => None,
            p => {
                let idx = (p - 1) as usize;
                if idx >= i {
                    return Err(CoreError::Format(format!(
                        "node {i} has forward or self parent"
                    )));
                }
                Some(NodeId::from_index(idx))
            }
        };
        if raw.metric_ids != raw.values {
            return Err(CoreError::Format(format!(
                "node {i} metric id/value length mismatch"
            )));
        }
        let frame = FrameRef {
            kind: ContextKind::from_code(raw.kind),
            name: StringId::from_index(raw.name as usize),
            module: StringId::from_index(raw.module as usize),
            file: StringId::from_index(raw.file as usize),
            line: raw.line as u32,
            address: raw.address,
        };
        let node = profile.push_decoded(parent, frame);
        for (&id, &value) in ids.by_ref().zip(vals.by_ref()).take(raw.values) {
            if id >= metric_count {
                return Err(CoreError::Format(format!(
                    "node {i} references unknown metric"
                )));
            }
            // Dense columns hold one value per node and metric.
            if !profile.insert_value(node, MetricId::from_index(id as usize), value) {
                return Err(CoreError::Format(format!("node {i} repeats metric {id}")));
            }
        }
    }

    profile.validate().map_err(CoreError::Format)?;
    profile.finish();
    Ok(profile)
}

/// A node's scalar fields, plus how many metric ids and values it
/// appended to the decoder's shared runs.
struct RawNode {
    parent_plus_1: u64,
    kind: u64,
    name: u64,
    module: u64,
    file: u64,
    line: u64,
    address: u64,
    metric_ids: usize,
    values: usize,
}

fn read_metric(r: &mut Reader<'_>) -> Result<MetricDescriptor, CoreError> {
    let mut metric = MetricDescriptor::default();
    while let Some((field, ty)) = r.read_tag()? {
        match field {
            1 => metric.name = r.read_string()?.to_owned(),
            2 => metric.unit = MetricUnit::from_code(r.read_varint()?),
            3 => metric.kind = MetricKind::from_code(r.read_varint()?),
            4 => metric.description = r.read_string()?.to_owned(),
            _ => r.skip(ty)?,
        }
    }
    Ok(metric)
}

fn read_node(
    r: &mut Reader<'_>,
    metric_ids: &mut Vec<u64>,
    values: &mut Vec<f64>,
) -> Result<RawNode, CoreError> {
    let (ids_before, values_before) = (metric_ids.len(), values.len());
    let mut node = RawNode {
        parent_plus_1: 0,
        kind: 0,
        name: 0,
        module: 0,
        file: 0,
        line: 0,
        address: 0,
        metric_ids: 0,
        values: 0,
    };
    while let Some((field, ty)) = r.read_tag()? {
        match field {
            1 => node.parent_plus_1 = r.read_varint()?,
            2 => node.kind = r.read_varint()?,
            3 => node.name = r.read_varint()?,
            4 => node.module = r.read_varint()?,
            5 => node.file = r.read_varint()?,
            6 => node.line = r.read_varint()?,
            7 => node.address = r.read_varint()?,
            8 => r.read_packed_uint64(metric_ids)?,
            9 => r.read_packed_double(values)?,
            _ => r.skip(ty)?,
        }
    }
    node.metric_ids = metric_ids.len() - ids_before;
    node.values = values.len() - values_before;
    Ok(node)
}

fn read_link(r: &mut Reader<'_>) -> Result<ContextLink, CoreError> {
    // proto3 semantics: an absent enum field means code 0.
    let mut kind = LinkKind::from_code(0);
    let mut endpoints: Vec<u64> = Vec::new();
    let mut metric_ids: Vec<u64> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    while let Some((field, ty)) = r.read_tag()? {
        match field {
            1 => kind = LinkKind::from_code(r.read_varint()?),
            2 => r.read_packed_uint64(&mut endpoints)?,
            3 => r.read_packed_uint64(&mut metric_ids)?,
            4 => r.read_packed_double(&mut values)?,
            _ => r.skip(ty)?,
        }
    }
    if metric_ids.len() != values.len() {
        return Err(CoreError::Format(
            "link metric id/value length mismatch".to_owned(),
        ));
    }
    let mut link = ContextLink::new(kind);
    for e in endpoints {
        link = link.with_endpoint(NodeId::from_index(e as usize));
    }
    for (id, v) in metric_ids.into_iter().zip(values) {
        link = link.with_value(MetricId::from_index(id as usize), v);
    }
    Ok(link)
}

fn read_meta(r: &mut Reader<'_>) -> Result<ProfileMeta, CoreError> {
    let mut meta = ProfileMeta::default();
    while let Some((field, ty)) = r.read_tag()? {
        match field {
            1 => meta.name = r.read_string()?.to_owned(),
            2 => meta.profiler = r.read_string()?.to_owned(),
            3 => meta.description = r.read_string()?.to_owned(),
            4 => meta.timestamp_nanos = r.read_varint()?,
            _ => r.skip(ty)?,
        }
    }
    Ok(meta)
}

// Expose a WireType import so the unused-import lint stays honest if the
// decode loop changes shape.
#[allow(unused)]
fn _wire_type_witness(ty: WireType) -> u64 {
    ty.bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::ProfileBuilder;

    fn rich_profile() -> Profile {
        let mut b = ProfileBuilder::new("rich");
        let cpu = b.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Nanoseconds,
            MetricKind::Exclusive,
        ));
        let mem = b.add_metric(
            MetricDescriptor::new("mem", MetricUnit::Bytes, MetricKind::Point)
                .with_description("resident bytes"),
        );
        b.profiler("test-tool");
        b.push(Frame::function("main").with_source("main.c", 10));
        let use_ctx = b.push(
            Frame::function("compute")
                .with_module("libwork.so")
                .with_source("work.c", 42)
                .with_address(0x1234),
        );
        b.sample(&[(cpu, 1e6), (mem, 4096.0)]);
        b.pop().unwrap();
        let reuse_ctx = b.push(Frame::new(ContextKind::Loop, "loop@main.c:20"));
        b.sample(&[(cpu, 5e5)]);
        b.link(
            ContextLink::new(LinkKind::UseReuse)
                .with_endpoint(use_ctx)
                .with_endpoint(reuse_ctx)
                .with_value(cpu, 77.0),
        );
        let mut p = b.finish();
        p.meta_mut().timestamp_nanos = 1_700_000_000_000_000_000;
        p.meta_mut().description = "unit-test profile".to_owned();
        p
    }

    #[test]
    fn roundtrip_empty() {
        let p = Profile::new("empty");
        let bytes = to_bytes(&p);
        assert_eq!(from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn roundtrip_rich() {
        let p = rich_profile();
        let bytes = to_bytes(&p);
        let decoded = from_bytes(&bytes).unwrap();
        assert_eq!(decoded, p);
        decoded.validate().unwrap();
    }

    #[test]
    fn header_detection() {
        let p = Profile::new("h");
        let bytes = to_bytes(&p);
        assert!(is_easyview(&bytes));
        assert!(!is_easyview(b"EVP"));
        assert!(!is_easyview(b"GARBAGE!"));
    }

    #[test]
    fn rejects_wrong_version() {
        let p = Profile::new("v");
        let mut bytes = to_bytes(&p);
        bytes[4] = 99;
        assert!(matches!(from_bytes(&bytes), Err(CoreError::Format(_))));
    }

    #[test]
    fn truncation_never_panics() {
        let p = rich_profile();
        let bytes = to_bytes(&p);
        // A cut at a field boundary yields a valid shorter message
        // (protobuf has no framing); any other cut must error. Either
        // way: no panic, and every Ok satisfies the invariants.
        for cut in 0..bytes.len() {
            if let Ok(decoded) = from_bytes(&bytes[..cut]) {
                decoded.validate().unwrap();
            }
        }
        // Cuts inside the header always error.
        for cut in 0..5 {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_bitflips_gracefully() {
        // Bit flips may still decode (protobuf is dense), but must never
        // panic and any Ok result must satisfy the invariants.
        let p = rich_profile();
        let bytes = to_bytes(&p);
        for i in 5..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x55;
            if let Ok(decoded) = from_bytes(&corrupted) {
                decoded.validate().unwrap();
            }
        }
    }

    #[test]
    fn unknown_fields_are_skipped() {
        // Simulate a newer writer: append an unknown field to the body.
        let p = Profile::new("fwd");
        let mut bytes = to_bytes(&p);
        let mut extra = Writer::new();
        extra.write_string(99, "from the future");
        bytes.extend_from_slice(extra.as_bytes());
        assert_eq!(from_bytes(&bytes).unwrap(), p);
    }

    /// A hand-built EVPF body: `metrics` metrics, a root and a chain of
    /// `depth` nodes below it, the last of which holds the value pairs
    /// `metric_ids` / `values`.
    fn evpf_with_leaf_values(
        metrics: usize,
        depth: usize,
        metric_ids: &[u64],
        values: &[f64],
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_string(1, "");
        w.write_string(1, "f");
        for _ in 0..metrics {
            w.write_message_with(2, |m| m.write_string(1, "cpu"));
        }
        w.write_message_with(3, |_| {});
        for parent in 0..depth as u64 {
            w.write_message_with(3, |m| {
                m.write_uint64(1, parent + 1);
                m.write_uint64(3, 1);
                if parent + 1 == depth as u64 {
                    m.write_packed_uint64(8, metric_ids);
                    m.write_packed_double(9, values);
                }
            });
        }
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION);
        bytes.extend_from_slice(w.as_bytes());
        bytes
    }

    #[test]
    fn a_node_repeating_a_metric_is_rejected() {
        let ok = from_bytes(&evpf_with_leaf_values(1, 1, &[0], &[-0.0])).unwrap();
        let child = NodeId::from_index(1);
        assert_eq!(
            ok.value(child, MetricId::from_index(0)).to_bits(),
            (-0.0f64).to_bits()
        );
        assert!(matches!(
            from_bytes(&evpf_with_leaf_values(1, 1, &[0, 0], &[1.0, 2.0])),
            Err(CoreError::Format(msg)) if msg.contains("repeats metric 0")
        ));
        // Out-of-range ids are rejected rather than truncated to a
        // registered one.
        for id in [1, 1 << 16] {
            assert!(matches!(
                from_bytes(&evpf_with_leaf_values(1, 1, &[id], &[1.0])),
                Err(CoreError::Format(msg)) if msg.contains("unknown metric")
            ));
        }
        // So is a body declaring more metrics than ids: id 65,536 would
        // wrap onto metric 0. The most `add_metric` registers loads.
        for (metrics, id) in [(65_536, 0), (65_537, 65_536)] {
            assert!(matches!(
                from_bytes(&evpf_with_leaf_values(metrics, 1, &[id], &[1.0])),
                Err(CoreError::Format(msg)) if msg.contains("at most 65535")
            ));
        }
        let p = from_bytes(&evpf_with_leaf_values(65_535, 1, &[65_534], &[2.0])).unwrap();
        let values: Vec<(MetricId, f64)> = p.node(child).values().collect();
        assert_eq!(values, [(MetricId::from_index(65_534), 2.0)]);
    }

    #[test]
    fn many_metrics_on_one_deep_leaf_stay_small() {
        // Dense columns would hold metrics x depth slots (80 MB here);
        // the sparse layout holds the 500 stored values.
        let (metrics, depth) = (500, 20_000);
        let ids: Vec<u64> = (0..metrics as u64).collect();
        let values: Vec<f64> = ids.iter().map(|&id| id as f64 + 0.5).collect();
        let bytes = evpf_with_leaf_values(metrics, depth, &ids, &values);
        let p = from_bytes(&bytes).unwrap();
        assert_eq!(p.dense_slots(), 0);
        let leaf = NodeId::from_index(depth);
        let stored: Vec<(MetricId, f64)> = p.node(leaf).values().collect();
        assert_eq!(stored.len(), metrics);
        assert!(stored
            .iter()
            .all(|&(m, v)| v == m.index() as f64 + 0.5 && p.value(leaf, m) == v));
        let above = NodeId::from_index(depth - 1);
        assert_eq!(p.value(above, MetricId::from_index(7)), 0.0);
        assert_eq!(p.total(MetricId::from_index(3)), 3.5);
        assert_eq!(from_bytes(&to_bytes(&p)).unwrap(), p);
    }

    #[test]
    fn default_values_not_encoded() {
        // An empty profile's encoding should be tiny: header + empty
        // string entry + meta name.
        let p = Profile::new("x");
        let bytes = to_bytes(&p);
        assert!(bytes.len() < 32, "got {} bytes", bytes.len());
    }
}

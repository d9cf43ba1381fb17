//! The pprof binding: Google's `profile.proto`, the de-facto profile
//! format for Go (and the container `perf_to_profile` and Cloud Profiler
//! emit).
//!
//! The paper calls pprof's format "a subset of EasyView representation in
//! Protocol Buffer" (§VII-A); this module implements both directions —
//! parsing pprof files into the generic representation (the hot path of
//! the Fig. 5 response-time experiment) and writing them back out (used
//! by `ev-gen` to fabricate size-calibrated benchmark inputs).
//!
//! Field numbers below follow `github.com/google/pprof/proto/profile.proto`
//! exactly, so real pprof files are accepted byte-for-byte. Files may be
//! raw protobuf or gzip members (Go always gzips).

use crate::FormatError;
use ev_core::arena::{Arena, Span};
use ev_core::fast_hash::FxHashMap;
use ev_core::{
    ContextKind, Frame, FrameId, FrameRef, MetricDescriptor, MetricId, MetricKind, MetricUnit,
    Profile, StringId,
};
use ev_flate::{
    gzip_compress, gzip_decompress, is_gzip, CompressionLevel, ExecPolicy, FlateError, GzipStream,
};
use ev_wire::{
    decode_packed_int64, decode_packed_uint64, ChunkSource, FieldValue, Reader, StreamError,
    StreamReader, WireError, Writer,
};
use std::collections::HashMap;

/// Samples decoded through the one-pass path (`wire.onepass_samples`).
fn onepass_samples_counter() -> &'static ev_trace::Counter {
    static HANDLE: std::sync::OnceLock<&'static ev_trace::Counter> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| ev_trace::counter("wire.onepass_samples"))
}

/// One decoded `Location` message.
#[derive(Debug, Default, Clone)]
struct Location {
    id: u64,
    mapping_id: u64,
    address: u64,
    /// Innermost (leaf-most inline frame) first, per the spec.
    lines: Vec<Line>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Line {
    function_id: u64,
    line: i64,
}

/// One decoded `Function` message (string-table indices).
#[derive(Debug, Default, Clone, Copy)]
struct Function {
    id: u64,
    name: i64,
    filename: i64,
}

/// One decoded `Mapping` message (string-table indices).
#[derive(Debug, Default, Clone, Copy)]
struct Mapping {
    id: u64,
    filename: i64,
}

#[derive(Debug, Default, Clone, Copy)]
struct ValueType {
    r#type: i64,
    unit: i64,
}

/// Maps a pprof unit string to an EasyView metric unit.
fn unit_from_str(unit: &str) -> MetricUnit {
    match unit {
        "nanoseconds" => MetricUnit::Nanoseconds,
        "bytes" => MetricUnit::Bytes,
        "cycles" => MetricUnit::Cycles,
        _ => MetricUnit::Count,
    }
}

fn unit_to_str(unit: MetricUnit) -> &'static str {
    match unit {
        MetricUnit::Nanoseconds => "nanoseconds",
        MetricUnit::Bytes => "bytes",
        MetricUnit::Cycles => "cycles",
        MetricUnit::Count | MetricUnit::Ratio => "count",
    }
}

/// Parses a pprof profile (raw protobuf or gzip'd, including RFC 1952
/// concatenated multi-member files) into the generic representation.
/// Sample values become exclusive metrics attributed to the leaf of
/// each call path; inline frames in a `Location` expand into separate
/// CCT frames.
///
/// This is the one-pass decoder: a single forward walk over the wire
/// bytes interns strings and builds the CCT directly into
/// arena-backed profile storage. [`parse_reference`] is the retained
/// two-pass decoder; the differential conformance suite proves the two
/// produce identical profiles and identical errors on any input.
///
/// # Errors
///
/// Fails on gzip/wire-level corruption or dangling ids.
pub fn parse(data: &[u8]) -> Result<Profile, FormatError> {
    let _span = ev_trace::span("convert.pprof");
    let decompressed;
    let body: &[u8] = if is_gzip(data) {
        decompressed = gzip_decompress(data)?;
        &decompressed
    } else {
        data
    };
    parse_onepass(body)
}

/// The retained two-pass decoder, kept as the differential reference
/// for [`parse`] (the `inflate_reference`/`crc32_reference` pattern):
/// decode-to-intermediate, then rebuild. Byte-for-byte identical
/// results and errors to the one-pass decoder, at a fraction of the
/// speed.
///
/// # Errors
///
/// Same conditions as [`parse`].
pub fn parse_reference(data: &[u8]) -> Result<Profile, FormatError> {
    let _span = ev_trace::span("convert.pprof");
    let decompressed;
    let body: &[u8] = if is_gzip(data) {
        decompressed = gzip_decompress(data)?;
        &decompressed
    } else {
        data
    };
    parse_twopass(body)
}

/// Like [`parse`], but bounded-memory: the gzip body inflates in
/// chunks of roughly `chunk_size` bytes that feed the one-pass decoder
/// through a resumable `ev-wire` stream walk, so peak memory tracks
/// the *decoded tables* plus the final profile, never the whole
/// decompressed body. Under a parallel `policy` each pass inflates on
/// an `ev-par` pipeline thread ahead of the walk. Raw (uncompressed)
/// bodies stream too, exercising the same resume logic without the
/// inflate stage.
///
/// The stream is decoded in two passes over the *source*: pass 1 walks
/// the tables and validates every field's framing, pass 2 re-inflates
/// and replays only the sample payloads into the fixup. Trading one
/// extra inflate (a few percent of end-to-end time) for never
/// materializing the samples is what keeps peak memory independent of
/// the sample count — sample payloads dominate large profiles.
///
/// Differential contract: byte-identical profiles and identical errors
/// to [`parse`] at any chunk size and any thread count. In
/// particular, a container (gzip) error anywhere in the input outranks
/// a wire error anywhere in the body, exactly as if the body had been
/// decompressed up front.
///
/// # Errors
///
/// Same conditions as [`parse`].
pub fn parse_streaming_with(
    data: &[u8],
    policy: ExecPolicy,
    chunk_size: usize,
) -> Result<Profile, FormatError> {
    let _span = ev_trace::span("convert.pprof");
    if is_gzip(data) {
        parse_stream(policy, || {
            Ok(GzipChunkSource {
                gz: GzipStream::new(data, chunk_size)?,
                scratch: Vec::new(),
            })
        })
    } else {
        parse_stream(policy, || {
            Ok(SliceChunkSource {
                data,
                pos: 0,
                chunk_size,
            })
        })
    }
}

/// A `Location` record in the one-pass decoder. Its inline-line run
/// lives in a shared [`Arena`] instead of a per-record `Vec`, so
/// decoding a million locations costs one allocation, not a million.
#[derive(Debug, Clone, Copy)]
struct LocRec {
    id: u64,
    mapping_id: u64,
    address: u64,
    lines: Span,
}

/// Maps pprof entity ids (locations, functions, mappings) to their
/// record slot. Real profiles almost always number entities densely
/// from 1, so the index is a flat vector when ids are compact and only
/// falls back to hashing for adversarially sparse ids. Duplicate ids
/// resolve to the last record, matching the `HashMap::collect`
/// semantics of the reference decoder.
enum IdIndex {
    Dense(Vec<u32>),
    Sparse(FxHashMap<u64, u32>),
}

impl IdIndex {
    fn build<T>(items: &[T], id_of: impl Fn(&T) -> u64) -> IdIndex {
        let max_id = items.iter().map(&id_of).max().unwrap_or(0);
        if (max_id as usize) < items.len() * 4 + 64 {
            let mut slots = vec![u32::MAX; max_id as usize + 1];
            for (slot, item) in items.iter().enumerate() {
                slots[id_of(item) as usize] = slot as u32;
            }
            IdIndex::Dense(slots)
        } else {
            let mut map =
                FxHashMap::with_capacity_and_hasher(items.len(), Default::default());
            for (slot, item) in items.iter().enumerate() {
                map.insert(id_of(item), slot as u32);
            }
            IdIndex::Sparse(map)
        }
    }

    fn get(&self, id: u64) -> Option<u32> {
        match self {
            IdIndex::Dense(slots) => usize::try_from(id)
                .ok()
                .and_then(|i| slots.get(i).copied())
                .filter(|&slot| slot != u32::MAX),
            IdIndex::Sparse(map) => map.get(&id).copied(),
        }
    }
}

/// Interns the pprof string-table entry `idx` into the profile,
/// memoizing per table index so repeated references hash the string
/// once. Out-of-range and negative indices resolve to the empty
/// string, exactly like the reference decoder's clamped lookup.
fn sid_for(
    profile: &mut Profile,
    memo: &mut [u32],
    strings: &[&str],
    idx: i64,
) -> StringId {
    let i = idx.max(0) as usize;
    if i >= strings.len() {
        // The reference interns "" here, which is always StringId::EMPTY.
        return StringId::EMPTY;
    }
    if memo[i] != u32::MAX {
        return StringId::from_index(memo[i] as usize);
    }
    let sid = profile.intern(strings[i]);
    memo[i] = sid.index() as u32;
    sid
}

/// Decodes a `ValueType` sub-message (profile field 1).
fn decode_value_type(msg: &[u8]) -> Result<ValueType, WireError> {
    let mut vt = ValueType::default();
    let mut m = Reader::new(msg);
    while let Some((f, v)) = m.next_field()? {
        match (f, v) {
            (1, FieldValue::Varint(v)) => vt.r#type = v as i64,
            (2, FieldValue::Varint(v)) => vt.unit = v as i64,
            _ => {}
        }
    }
    Ok(vt)
}

/// Decodes a `Mapping` sub-message (profile field 3).
fn decode_mapping(msg: &[u8]) -> Result<Mapping, WireError> {
    let mut mp = Mapping::default();
    let mut m = Reader::new(msg);
    while let Some((f, v)) = m.next_field()? {
        match (f, v) {
            (1, FieldValue::Varint(v)) => mp.id = v,
            (5, FieldValue::Varint(v)) => mp.filename = v as i64,
            _ => {}
        }
    }
    Ok(mp)
}

/// Decodes a `Location` sub-message (profile field 4), appending its
/// inline-line run to the shared arena.
fn decode_location(msg: &[u8], lines: &mut Arena<Line>) -> Result<LocRec, WireError> {
    let mut loc = LocRec {
        id: 0,
        mapping_id: 0,
        address: 0,
        lines: Span::default(),
    };
    let mark = lines.mark();
    let mut m = Reader::new(msg);
    while let Some((f, v)) = m.next_field()? {
        match (f, v) {
            (1, FieldValue::Varint(v)) => loc.id = v,
            (2, FieldValue::Varint(v)) => loc.mapping_id = v,
            (3, FieldValue::Varint(v)) => loc.address = v,
            (4, FieldValue::Bytes(line_msg)) => {
                let mut line = Line::default();
                let mut lm = Reader::new(line_msg);
                while let Some((lf, lv)) = lm.next_field()? {
                    match (lf, lv) {
                        (1, FieldValue::Varint(v)) => line.function_id = v,
                        (2, FieldValue::Varint(v)) => line.line = v as i64,
                        _ => {}
                    }
                }
                lines.push(line);
            }
            _ => {}
        }
    }
    loc.lines = lines.span_since(mark);
    Ok(loc)
}

/// Decodes a `Function` sub-message (profile field 5).
fn decode_function(msg: &[u8]) -> Result<Function, WireError> {
    let mut func = Function::default();
    let mut m = Reader::new(msg);
    while let Some((f, v)) = m.next_field()? {
        match (f, v) {
            (1, FieldValue::Varint(v)) => func.id = v,
            (2, FieldValue::Varint(v)) => func.name = v as i64,
            (4, FieldValue::Varint(v)) => func.filename = v as i64,
            _ => {}
        }
    }
    Ok(func)
}

/// Decodes a `Sample` payload (profile field 2) into leaf-first
/// location ids and metric values, packed or unpacked.
fn decode_sample_payload(
    msg: &[u8],
    location_ids: &mut Vec<u64>,
    values: &mut Vec<i64>,
) -> Result<(), WireError> {
    let mut m = Reader::new(msg);
    while let Some((f, v)) = m.next_field()? {
        match (f, v) {
            (1, FieldValue::Bytes(b)) => decode_packed_uint64(b, location_ids)?,
            (1, FieldValue::Varint(v)) => location_ids.push(v),
            (2, FieldValue::Bytes(b)) => decode_packed_int64(b, values)?,
            (2, FieldValue::Varint(v)) => values.push(v as i64),
            _ => {}
        }
    }
    Ok(())
}

/// The decoded pprof entity tables a body walk produces — everything
/// the fixup pass needs besides the strings and the sample records.
/// Shared between the buffered and the streaming one-pass decoders.
#[derive(Default)]
struct WalkTables {
    sample_types: Vec<ValueType>,
    locs: Vec<LocRec>,
    lines: Arena<Line>,
    functions: Vec<Function>,
    mappings: Vec<Mapping>,
    time_nanos: i64,
}

/// A top-level field the tables do not keep. The buffered walk holds
/// these as borrowed slices; the streaming walk copies strings out and
/// only counts samples.
enum Held<'a> {
    /// A sample payload (field 2), decoded by the fixup pass once the
    /// location table is known.
    Sample(&'a [u8]),
    /// A string-table entry (field 6).
    Str(&'a str),
}

impl WalkTables {
    /// The field dispatch of both one-pass walks: entity fields decode
    /// into the tables, samples and strings go back to the caller.
    /// Known fields with a mismatched wire type fall through to the
    /// no-op arm — the walker has already consumed the value, which is
    /// precisely "skip as unknown".
    fn take_field<'a>(
        &mut self,
        field: u32,
        value: FieldValue<'a>,
    ) -> Result<Option<Held<'a>>, WireError> {
        match (field, value) {
            (1, FieldValue::Bytes(msg)) => self.sample_types.push(decode_value_type(msg)?),
            (2, FieldValue::Bytes(msg)) => return Ok(Some(Held::Sample(msg))),
            (3, FieldValue::Bytes(msg)) => self.mappings.push(decode_mapping(msg)?),
            (4, FieldValue::Bytes(msg)) => {
                self.locs.push(decode_location(msg, &mut self.lines)?);
            }
            (5, FieldValue::Bytes(msg)) => self.functions.push(decode_function(msg)?),
            (6, FieldValue::Bytes(msg)) => {
                // Validated here — the same walk position at which the
                // reference decoder's read_string() validates.
                let s = std::str::from_utf8(msg).map_err(|_| WireError::InvalidUtf8)?;
                return Ok(Some(Held::Str(s)));
            }
            (9, FieldValue::Varint(v)) => self.time_nanos = v as i64,
            _ => {}
        }
        Ok(None)
    }
}

/// The one-pass decode: a single forward walk over `body` with the
/// `ev-wire` streaming field walker, then a bounded fixup pass that
/// resolves forward references (samples may precede the tables they
/// point into) and replays the deferred sample payloads.
///
/// Error identity with [`parse_twopass`] is a designed invariant, not
/// an accident: the walker consumes exactly the bytes the reference's
/// dispatch-or-skip loop does, string-table UTF-8 is validated at the
/// same walk position, and sample payloads are *deferred* as raw byte
/// slices so their wire errors still surface after the full walk — the
/// order the two-pass decoder reports them in.
fn parse_onepass(body: &[u8]) -> Result<Profile, FormatError> {
    let mut tables = WalkTables::default();
    let mut strings: Vec<&str> = Vec::new();
    let mut sample_payloads: Vec<&[u8]> = Vec::new();

    let wire_span = ev_trace::span("wire.decode");
    let mut r = Reader::new(body);
    while let Some((field, value)) = r.next_field()? {
        match tables.take_field(field, value)? {
            Some(Held::Sample(msg)) => sample_payloads.push(msg),
            Some(Held::Str(s)) => strings.push(s),
            None => {}
        }
    }
    drop(wire_span);

    let sample_count = sample_payloads.len();
    let mut payloads = sample_payloads.iter();
    fixup_profile(&strings, &tables, sample_count, |ids, vals| {
        match payloads.next() {
            Some(payload) => {
                decode_sample_payload(payload, ids, vals)?;
                Ok(true)
            }
            None => Ok(false),
        }
    })
}

/// The fixup pass shared by the buffered and streaming one-pass
/// decoders: resolve tables, intern frames, replay samples.
///
/// `next_sample` yields one sample per call by appending to the
/// (pre-cleared) id/value vectors, `Ok(false)` when exhausted; the
/// buffered decoder decodes its deferred payload slices here, the
/// streaming decoder the sample payloads of its second pass, which
/// re-inflates and re-walks the source. An error from the closure
/// aborts the parse at exactly the sample index the buffered replay
/// would abort at.
fn fixup_profile(
    strings: &[&str],
    t: &WalkTables,
    sample_count: usize,
    mut next_sample: impl FnMut(&mut Vec<u64>, &mut Vec<i64>) -> Result<bool, FormatError>,
) -> Result<Profile, FormatError> {
    let mut profile = Profile::new("pprof");
    profile.meta_mut().profiler = "pprof".to_owned();
    profile.meta_mut().timestamp_nanos = t.time_nanos.max(0) as u64;

    let string_at = |idx: i64| -> &str { strings.get(idx.max(0) as usize).copied().unwrap_or("") };

    check_sample_type_count(t.sample_types.len())?;
    let metric_ids: Vec<MetricId> = t
        .sample_types
        .iter()
        .map(|vt| {
            let name = string_at(vt.r#type).to_owned();
            let unit = unit_from_str(string_at(vt.unit));
            profile.add_metric(MetricDescriptor::new(
                if name.is_empty() { "samples".to_owned() } else { name },
                unit,
                MetricKind::Exclusive,
            ))
        })
        .collect();

    let function_index = IdIndex::build(&t.functions, |f| f.id);
    let mapping_index = IdIndex::build(&t.mappings, |m| m.id);
    let location_index = IdIndex::build(&t.locs, |l| l.id);

    // Frame runs materialize lazily, at a location's first use by a
    // sample. That makes the profile's intern order *sample-first-use*
    // order — exactly what the reference decoder's per-step
    // `Profile::child` calls produce — and locations no sample
    // references never intern anything, again like the reference.
    // (`Profile` equality compares string tables entry for entry, so
    // the order is part of the conformance contract, not a detail.)
    let mut sid_memo = vec![u32::MAX; strings.len()];
    // Each location's frame run, outermost first, as frame-table ids
    // in one shared arena.
    let mut frame_ids: Arena<FrameId> = Arena::with_capacity(t.lines.len().max(t.locs.len()));
    // `Span::default()` (empty) marks "not yet materialized": every
    // materialized location yields at least one frame (unsymbolized
    // locations synthesize one from the address).
    let mut frame_spans: Vec<Span> = vec![Span::default(); t.locs.len()];

    // Replay the deferred samples in batches. Each sample's locations
    // resolve to frame ids outermost first, as the reference walks them,
    // so intern order and the first dangling id reported match it. Its
    // frames join the batch; a full batch goes into the CCT in one
    // `Profile::insert_paths`, level by level, and then its samples'
    // values go to their leaves in sample order, so every sum adds in
    // the order the reference adds it.
    if ev_trace::enabled() {
        onepass_samples_counter().add(sample_count as u64);
    }
    let mut location_ids: Vec<u64> = Vec::new();
    let mut values: Vec<i64> = Vec::new();
    let mut batch = Batch::default();
    let mut samples_span = ev_trace::span("formats.pprof_samples");
    loop {
        location_ids.clear();
        values.clear();
        if !next_sample(&mut location_ids, &mut values)? {
            break;
        }
        // Every location yields at least one frame.
        if batch.is_full_for(location_ids.len()) {
            drop(samples_span);
            batch.flush(&mut profile);
            samples_span = ev_trace::span("formats.pprof_samples");
        }
        for &loc_id in location_ids.iter().rev() {
            let Some(slot) = location_index.get(loc_id) else {
                return Err(FormatError::Schema(format!(
                    "sample references unknown location {loc_id}"
                )));
            };
            let mut span = frame_spans[slot as usize];
            if span.is_empty() {
                span = materialize_frames(
                    slot as usize,
                    &mut profile,
                    &mut frame_ids,
                    &mut frame_spans,
                    &mut sid_memo,
                    strings,
                    &t.locs,
                    &t.lines,
                    &t.functions,
                    &function_index,
                    &t.mappings,
                    &mapping_index,
                );
            }
            batch.frames.extend_from_slice(frame_ids.get(span));
        }
        let sample = batch.ends.len() as u32;
        batch.ends.push(batch.frames.len() as u32);
        for (&v, &metric) in values.iter().zip(&metric_ids) {
            if v != 0 {
                batch.values.push((sample, metric, v));
            }
        }
    }
    drop(samples_span);
    if !batch.ends.is_empty() {
        batch.flush(&mut profile);
    }

    profile.finish();
    Ok(profile)
}

/// Frame steps a sample batch holds before it goes into the CCT. A
/// batch and its insert cost at most about 20 bytes per frame step
/// and 40 per sample, so this bounds the replay's memory whatever the
/// sample count, and a batch is still wide enough that each depth's
/// dedup map stays small and hot. A batch also holds at most this many
/// samples, so empty samples fill one too.
const BATCH_STEPS: usize = 1 << 18;

/// The samples of one batch: their frame paths, outermost first, in
/// the layout of [`Profile::insert_paths`], and their nonzero values.
#[derive(Default)]
struct Batch {
    frames: Vec<FrameId>,
    ends: Vec<u32>,
    /// `(sample in batch, metric, value)`, in sample order.
    values: Vec<(u32, MetricId, i64)>,
}

impl Batch {
    /// Whether a sample of at least `steps` more frames must wait for
    /// the next batch. A batch takes any first sample, however long.
    fn is_full_for(&self, steps: usize) -> bool {
        !self.ends.is_empty()
            && (self.frames.len() + steps > BATCH_STEPS || self.ends.len() >= BATCH_STEPS)
    }

    /// Inserts the batch's paths, adds its values to their leaves and
    /// empties it.
    fn flush(&mut self, profile: &mut Profile) {
        let leaves = profile.insert_paths(&self.frames, &self.ends);
        for &(sample, metric, v) in &self.values {
            profile.add_value(leaves[sample as usize], metric, v as f64);
        }
        self.frames.clear();
        self.ends.clear();
        self.values.clear();
    }
}

/// Each sample type becomes a metric, and a profile holds at most
/// `u16::MAX` of them.
fn check_sample_type_count(count: usize) -> Result<(), FormatError> {
    if count > usize::from(u16::MAX) {
        return Err(FormatError::Schema(format!(
            "{count} sample types, at most {} allowed",
            u16::MAX
        )));
    }
    Ok(())
}

/// Expands location `slot` into its frame run (outermost inline frame
/// first) in the shared arena, interning the strings it touches and
/// the frames it yields. Called at a location's first use by a sample,
/// so intern order matches the reference decoder's per-step
/// `Frame::intern` order: name, module, file, per frame.
#[allow(clippy::too_many_arguments)]
fn materialize_frames(
    slot: usize,
    profile: &mut Profile,
    frame_ids: &mut Arena<FrameId>,
    frame_spans: &mut [Span],
    sid_memo: &mut [u32],
    strings: &[&str],
    locs: &[LocRec],
    lines: &Arena<Line>,
    functions: &[Function],
    function_index: &IdIndex,
    mappings: &[Mapping],
    mapping_index: &IdIndex,
) -> Span {
    let loc = locs[slot];
    let module_idx = mapping_index
        .get(loc.mapping_id)
        .map(|mslot| mappings[mslot as usize].filename);
    let mark = frame_ids.mark();
    if loc.lines.is_empty() {
        // Unsymbolized location: synthesize a frame from the address.
        let name = profile.intern(&format!("0x{:x}", loc.address));
        let module = match module_idx {
            Some(idx) => sid_for(profile, sid_memo, strings, idx),
            None => StringId::EMPTY,
        };
        let frame = FrameRef {
            kind: ContextKind::Function,
            name,
            module,
            file: StringId::EMPTY,
            line: 0,
            address: loc.address,
        };
        frame_ids.push(profile.frame_id(frame));
    } else {
        // lines[0] is the leaf-most inline frame; emit outermost first.
        for line in lines.get(loc.lines).iter().rev() {
            let func = location_function(function_index, functions, line.function_id);
            let name = sid_for(profile, sid_memo, strings, func.name);
            let module = match module_idx {
                Some(idx) => sid_for(profile, sid_memo, strings, idx),
                None => StringId::EMPTY,
            };
            let file = sid_for(profile, sid_memo, strings, func.filename);
            let frame = FrameRef {
                kind: ContextKind::Function,
                name,
                module,
                file,
                line: line.line.max(0) as u32,
                address: loc.address,
            };
            frame_ids.push(profile.frame_id(frame));
        }
    }
    let span = frame_ids.span_since(mark);
    frame_spans[slot] = span;
    span
}

/// Resolves a `Line`'s function id, defaulting (like the reference's
/// `HashMap::get(..).unwrap_or_default()`) when the id is dangling.
fn location_function(index: &IdIndex, functions: &[Function], id: u64) -> Function {
    index
        .get(id)
        .map(|slot| functions[slot as usize])
        .unwrap_or_default()
}

/// [`ChunkSource`] over an in-memory slice — the raw (uncompressed)
/// pprof body case. Never fails; using `FlateError` as the error type
/// anyway keeps the streaming walk monomorphic over both sources.
struct SliceChunkSource<'a> {
    data: &'a [u8],
    pos: usize,
    chunk_size: usize,
}

impl ChunkSource for SliceChunkSource<'_> {
    type Error = FlateError;

    fn read_chunk(&mut self, dst: &mut Vec<u8>) -> Result<bool, FlateError> {
        if self.pos == self.data.len() {
            return Ok(false);
        }
        let take = self.chunk_size.max(1).min(self.data.len() - self.pos);
        dst.extend_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(true)
    }
}

/// [`ChunkSource`] over a [`GzipStream`]: bridges the stream's
/// clear-and-fill contract to the trait's append contract through a
/// scratch buffer (one memcpy per chunk, noise next to the inflate).
struct GzipChunkSource<'a> {
    gz: GzipStream<'a>,
    scratch: Vec<u8>,
}

impl ChunkSource for GzipChunkSource<'_> {
    type Error = FlateError;

    fn read_chunk(&mut self, dst: &mut Vec<u8>) -> Result<bool, FlateError> {
        if dst.is_empty() {
            // Clear-and-fill and append agree on an empty buffer; the
            // pipelined producer always pulls into one, so the common
            // path skips the scratch hop.
            return self.gz.next_chunk(dst);
        }
        let more = self.gz.next_chunk(&mut self.scratch)?;
        if more {
            dst.extend_from_slice(&self.scratch);
        }
        Ok(more)
    }
}

/// What the streaming walk produces: the entity tables (strings owned,
/// since the bytes they were decoded from are gone) and the sample
/// count for the fixup's reservation.
struct StreamWalk {
    strings: Vec<String>,
    tables: WalkTables,
    /// Every `(2, bytes)` field seen — the buffered decoder's
    /// `sample_payloads.len()`.
    sample_count: usize,
}

/// How many chunks a pipeline stage may run ahead of its consumer.
/// One in-flight chunk already hides the inflate behind the walk;
/// a second absorbs scheduling jitter. Peak memory grows by
/// `PIPE_DEPTH × chunk_size`.
const PIPE_DEPTH: usize = 2;

/// Adapts a [`ChunkSource`] into a [`ev_par::with_pipeline`] producer:
/// each call pulls one chunk into a fresh buffer. After a source error
/// the next call observes the source's exhausted state (`Ok(false)`)
/// and ends the stream, so the produced item sequence is exactly what
/// inline pulls would yield.
fn chunk_producer<S: ChunkSource<Error = FlateError>>(
    mut source: S,
) -> impl FnMut() -> Option<Result<Vec<u8>, FlateError>> {
    move || {
        let mut buf = Vec::new();
        match source.read_chunk(&mut buf) {
            Ok(true) => Some(Ok(buf)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// [`ChunkSource`] over the consumer end of a chunk pipeline.
struct PipeSource<'a, 'b> {
    rx: &'a mut ev_par::PipelineRx<'b, Vec<u8>, FlateError>,
}

impl ChunkSource for PipeSource<'_, '_> {
    type Error = FlateError;

    fn read_chunk(&mut self, dst: &mut Vec<u8>) -> Result<bool, FlateError> {
        match self.rx.pull() {
            Some(Ok(chunk)) => {
                dst.extend_from_slice(&chunk);
                Ok(true)
            }
            Some(Err(e)) => Err(e),
            None => Ok(false),
        }
    }
}

/// Drives the streaming decode: pass 1 walks the tables, pass 2 (a
/// fresh source from `make_source`) replays the sample payloads
/// straight into the fixup, so samples are never materialized. Each
/// pass pulls its chunks through [`ev_par::with_pipeline`], so under a
/// parallel policy chunk N+1 inflates on a pipeline thread while the
/// walk decodes chunk N — the inflate leaves the end-to-end critical
/// path entirely. Sequential policies pull inline: that path is the
/// reference, and the pipeline delivers it the bit-identical chunk
/// sequence.
///
/// Pass 1 enforces the buffered path's error precedence: that path
/// decompresses the whole container before wire-decoding a single
/// byte, so a flate error anywhere in the stream outranks a wire error
/// anywhere in the body. On a wire error the remaining source is
/// drained to look for one. A completed pass 1 conversely proves the
/// container and every field's framing are sound, so pass 2 — a
/// deterministic re-pass — can only surface errors from *inside* a
/// sample payload: the same errors, at the same replay index, the
/// buffered decoder reports from its deferred payload slices.
fn parse_stream<S: ChunkSource<Error = FlateError> + Send>(
    policy: ExecPolicy,
    make_source: impl Fn() -> Result<S, FlateError>,
) -> Result<Profile, FormatError> {
    let walk = ev_par::with_pipeline(
        policy,
        PIPE_DEPTH,
        chunk_producer(make_source()?),
        |rx| -> Result<StreamWalk, FormatError> {
            let mut reader = StreamReader::new(PipeSource { rx });
            match walk_stream(&mut reader) {
                Ok(walk) => Ok(walk),
                Err(StreamError::Source(e)) => Err(e.into()),
                Err(StreamError::Wire(e)) => {
                    if let Some(flate) = drain_source(&mut reader) {
                        return Err(flate.into());
                    }
                    Err(e.into())
                }
            }
        },
    )?;
    let strings: Vec<&str> = walk.strings.iter().map(String::as_str).collect();
    ev_par::with_pipeline(
        policy,
        PIPE_DEPTH,
        chunk_producer(make_source()?),
        |rx| {
            let mut replay = StreamReader::new(PipeSource { rx });
            fixup_profile(&strings, &walk.tables, walk.sample_count, |ids, vals| {
                loop {
                    match replay.next_field() {
                        Ok(Some((2, FieldValue::Bytes(payload)))) => {
                            decode_sample_payload(payload, ids, vals)?;
                            return Ok(true);
                        }
                        Ok(Some(_)) => {}
                        Ok(None) => return Ok(false),
                        Err(StreamError::Wire(e)) => return Err(e.into()),
                        Err(StreamError::Source(e)) => return Err(e.into()),
                    }
                }
            })
        },
    )
}

/// Pulls the rest of the chunk source, returning the first error. Used
/// after a wire error to find any container error the buffered path
/// would have reported first.
fn drain_source<S: ChunkSource>(reader: &mut StreamReader<S>) -> Option<S::Error> {
    let mut sink = Vec::new();
    loop {
        sink.clear();
        match reader.source_mut().read_chunk(&mut sink) {
            Ok(true) => {}
            Ok(false) => return None,
            Err(e) => return Some(e),
        }
    }
}

/// The streaming twin of [`parse_onepass`]'s walk: the same field
/// dispatch ([`WalkTables::take_field`]) over a [`StreamReader`]
/// instead of a contiguous slice. Strings are copied out (their chunk
/// is recycled on the next refill) and sample payloads are only
/// *counted* — their contents are decoded by the replay pass, exactly
/// as the buffered walk defers payload slices undecoded.
fn walk_stream(
    reader: &mut StreamReader<impl ChunkSource<Error = FlateError>>,
) -> Result<StreamWalk, StreamError<FlateError>> {
    let _wire_span = ev_trace::span("wire.decode");
    let mut tables = WalkTables::default();
    let mut strings: Vec<String> = Vec::new();
    let mut sample_count = 0usize;
    while let Some((field, value)) = reader.next_field()? {
        match tables.take_field(field, value)? {
            Some(Held::Sample(_)) => sample_count += 1,
            Some(Held::Str(s)) => strings.push(s.to_owned()),
            None => {}
        }
    }
    Ok(StreamWalk {
        strings,
        tables,
        sample_count,
    })
}

/// The two-pass decode kept as the differential reference: pass 1
/// materializes owned string/location/function/mapping tables, pass 2
/// re-walks the body for the samples.
fn parse_twopass(body: &[u8]) -> Result<Profile, FormatError> {
    use ev_wire::WireType;

    let mut strings: Vec<String> = Vec::new();
    let mut sample_types: Vec<ValueType> = Vec::new();
    let mut locations: Vec<Location> = Vec::new();
    let mut functions: Vec<Function> = Vec::new();
    let mut mappings: Vec<Mapping> = Vec::new();
    let mut time_nanos: i64 = 0;

    let wire_span = ev_trace::span("wire.decode");
    let mut r = Reader::new(body);
    while let Some((field, ty)) = r.read_tag()? {
        // Known fields carried on the wrong wire type are skipped as
        // unknown, per protobuf conformance — both decoders agree.
        match (field, ty) {
            (1, WireType::LengthDelimited) => {
                let mut m = r.read_message()?;
                let mut vt = ValueType::default();
                while let Some((f, t)) = m.read_tag()? {
                    match (f, t) {
                        (1, WireType::Varint) => vt.r#type = m.read_int64()?,
                        (2, WireType::Varint) => vt.unit = m.read_int64()?,
                        _ => m.skip(t)?,
                    }
                }
                sample_types.push(vt);
            }
            (2, _) => {
                // Samples are replayed in a second pass, once the
                // location/function tables are known; skip here.
                r.skip(ty)?;
            }
            (3, WireType::LengthDelimited) => {
                let mut m = r.read_message()?;
                let mut mp = Mapping::default();
                while let Some((f, t)) = m.read_tag()? {
                    match (f, t) {
                        (1, WireType::Varint) => mp.id = m.read_varint()?,
                        (5, WireType::Varint) => mp.filename = m.read_int64()?,
                        _ => m.skip(t)?,
                    }
                }
                mappings.push(mp);
            }
            (4, WireType::LengthDelimited) => {
                let mut m = r.read_message()?;
                let mut loc = Location::default();
                while let Some((f, t)) = m.read_tag()? {
                    match (f, t) {
                        (1, WireType::Varint) => loc.id = m.read_varint()?,
                        (2, WireType::Varint) => loc.mapping_id = m.read_varint()?,
                        (3, WireType::Varint) => loc.address = m.read_varint()?,
                        (4, WireType::LengthDelimited) => {
                            let mut lm = m.read_message()?;
                            let mut line = Line::default();
                            while let Some((lf, lt)) = lm.read_tag()? {
                                match (lf, lt) {
                                    (1, WireType::Varint) => line.function_id = lm.read_varint()?,
                                    (2, WireType::Varint) => line.line = lm.read_int64()?,
                                    _ => lm.skip(lt)?,
                                }
                            }
                            loc.lines.push(line);
                        }
                        _ => m.skip(t)?,
                    }
                }
                locations.push(loc);
            }
            (5, WireType::LengthDelimited) => {
                let mut m = r.read_message()?;
                let mut func = Function::default();
                while let Some((f, t)) = m.read_tag()? {
                    match (f, t) {
                        (1, WireType::Varint) => func.id = m.read_varint()?,
                        (2, WireType::Varint) => func.name = m.read_int64()?,
                        (4, WireType::Varint) => func.filename = m.read_int64()?,
                        _ => m.skip(t)?,
                    }
                }
                functions.push(func);
            }
            (6, WireType::LengthDelimited) => strings.push(r.read_string()?.to_owned()),
            (9, WireType::Varint) => time_nanos = r.read_int64()?,
            _ => r.skip(ty)?,
        }
    }
    drop(wire_span);

    let string_at = |idx: i64| -> &str {
        strings
            .get(idx.max(0) as usize)
            .map(String::as_str)
            .unwrap_or("")
    };

    let functions_by_id: HashMap<u64, Function> =
        functions.iter().map(|f| (f.id, *f)).collect();
    let mappings_by_id: HashMap<u64, Mapping> = mappings.iter().map(|m| (m.id, *m)).collect();
    let mut profile = Profile::new("pprof");
    profile.meta_mut().profiler = "pprof".to_owned();
    profile.meta_mut().timestamp_nanos = time_nanos.max(0) as u64;

    check_sample_type_count(sample_types.len())?;
    let metric_ids: Vec<MetricId> = sample_types
        .iter()
        .map(|vt| {
            let name = string_at(vt.r#type).to_owned();
            let unit = unit_from_str(string_at(vt.unit));
            profile.add_metric(MetricDescriptor::new(
                if name.is_empty() { "samples".to_owned() } else { name },
                unit,
                MetricKind::Exclusive,
            ))
        })
        .collect();

    // Second pass: replay the sample records. Clarity over speed —
    // every sample step resolves its location to an owned [`Frame`] and
    // inserts it through the string-hashing [`Profile::child`] API.
    // This is the plainest possible statement of the pprof→CCT
    // semantics, the same way `inflate_reference` spells out RFC 1951
    // symbol by symbol; the one-pass decoder is differentially checked
    // against it, including the intern order its per-step
    // `Frame::intern` calls induce (name, module, file, at a location's
    // first use by a sample).
    let locations_by_id: HashMap<u64, &Location> =
        locations.iter().map(|l| (l.id, l)).collect();
    let root = profile.root();
    let mut location_ids: Vec<u64> = Vec::new();
    let mut values: Vec<i64> = Vec::new();
    let _wire_span = ev_trace::span("wire.decode");
    let mut r = Reader::new(body);
    while let Some((field, ty)) = r.read_tag()? {
        if field != 2 || ty != WireType::LengthDelimited {
            r.skip(ty)?;
            continue;
        }
        let mut m = r.read_message()?;
        location_ids.clear();
        values.clear();
        while let Some((f, t)) = m.read_tag()? {
            match (f, t) {
                (1, WireType::LengthDelimited) => m.read_packed_uint64(&mut location_ids)?,
                (1, WireType::Varint) => location_ids.push(m.read_varint()?),
                (2, WireType::LengthDelimited) => m.read_packed_int64(&mut values)?,
                (2, WireType::Varint) => values.push(m.read_varint()? as i64),
                _ => m.skip(t)?,
            }
        }
        let mut node = root;
        // location_ids are leaf-first; the CCT wants outermost first.
        for &loc_id in location_ids.iter().rev() {
            let Some(loc) = locations_by_id.get(&loc_id) else {
                return Err(FormatError::Schema(format!(
                    "sample references unknown location {loc_id}"
                )));
            };
            let module = mappings_by_id
                .get(&loc.mapping_id)
                .map(|m| string_at(m.filename))
                .unwrap_or("");
            if loc.lines.is_empty() {
                // Unsymbolized location: synthesize a frame from the address.
                let frame = Frame::function(format!("0x{:x}", loc.address))
                    .with_module(module)
                    .with_address(loc.address);
                node = profile.child(node, &frame);
            } else {
                // lines[0] is the leaf-most inline frame; emit outermost first.
                for line in loc.lines.iter().rev() {
                    let func = functions_by_id
                        .get(&line.function_id)
                        .copied()
                        .unwrap_or_default();
                    let frame = Frame::function(string_at(func.name))
                        .with_module(module)
                        .with_source(string_at(func.filename), line.line.max(0) as u32)
                        .with_address(loc.address);
                    node = profile.child(node, &frame);
                }
            }
        }
        for (i, &v) in values.iter().enumerate() {
            if let Some(&metric) = metric_ids.get(i) {
                if v != 0 {
                    profile.add_value(node, metric, v as f64);
                }
            }
        }
    }

    Ok(profile)
}

/// Options for [`write()`].
#[derive(Debug, Clone, Copy)]
pub struct WriteOptions {
    /// Wrap the protobuf body in a gzip member (Go's default).
    pub gzip: bool,
    /// Compression level when gzipping.
    pub level: CompressionLevel,
}

impl Default for WriteOptions {
    fn default() -> WriteOptions {
        WriteOptions {
            gzip: true,
            level: CompressionLevel::Fast,
        }
    }
}

/// Serializes a profile as a pprof file.
///
/// Each profile metric becomes a `sample_type`; every node carrying
/// values becomes a `Sample` whose location chain is its call path
/// (leaf first). One `Location`/`Function` pair is emitted per distinct
/// frame, one `Mapping` per distinct load module.
pub fn write(profile: &Profile, options: WriteOptions) -> Vec<u8> {
    let mut strings: Vec<String> = vec![String::new()];
    let mut string_ids: HashMap<String, i64> = HashMap::new();
    string_ids.insert(String::new(), 0);

    fn intern_in(
        s: &str,
        strings: &mut Vec<String>,
        string_ids: &mut HashMap<String, i64>,
    ) -> i64 {
        if let Some(&id) = string_ids.get(s) {
            return id;
        }
        let id = strings.len() as i64;
        strings.push(s.to_owned());
        string_ids.insert(s.to_owned(), id);
        id
    }

    // Assign location/function/mapping ids per distinct frame identity.
    struct Tables {
        functions: Vec<(u64, i64, i64)>,          // id, name sid, file sid
        function_ids: HashMap<(i64, i64), u64>,   // (name, file) -> id
        mappings: Vec<(u64, i64)>,                // id, filename sid
        mapping_ids: HashMap<i64, u64>,           // filename -> id
        locations: Vec<(u64, u64, u64, u64, i64)>, // id, mapping, address, function, line
        location_ids: HashMap<(u64, u64, u64, i64), u64>,
    }
    let mut t = Tables {
        functions: Vec::new(),
        function_ids: HashMap::new(),
        mappings: Vec::new(),
        mapping_ids: HashMap::new(),
        locations: Vec::new(),
        location_ids: HashMap::new(),
    };

    // Location id per CCT node, computed once per node (0 = not yet).
    let mut loc_of_node: Vec<u64> = vec![0; profile.node_count()];
    let loc_for = |node: ev_core::NodeId,
                       t: &mut Tables,
                       strings: &mut Vec<String>,
                       string_ids: &mut HashMap<String, i64>,
                       loc_of_node: &mut Vec<u64>|
     -> u64 {
        if loc_of_node[node.index()] != 0 {
            return loc_of_node[node.index()];
        }
        let frame = profile.resolve_frame(node);
        let name_sid = intern_in(&frame.name, strings, string_ids);
        let file_sid = intern_in(&frame.file, strings, string_ids);
        let func_id = *t
            .function_ids
            .entry((name_sid, file_sid))
            .or_insert_with(|| {
                let id = t.functions.len() as u64 + 1;
                t.functions.push((id, name_sid, file_sid));
                id
            });
        let module_sid = intern_in(&frame.module, strings, string_ids);
        let mapping_id = *t.mapping_ids.entry(module_sid).or_insert_with(|| {
            let id = t.mappings.len() as u64 + 1;
            t.mappings.push((id, module_sid));
            id
        });
        let key = (mapping_id, frame.address, func_id, i64::from(frame.line));
        let loc_id = *t.location_ids.entry(key).or_insert_with(|| {
            let id = t.locations.len() as u64 + 1;
            t.locations
                .push((id, mapping_id, frame.address, func_id, i64::from(frame.line)));
            id
        });
        loc_of_node[node.index()] = loc_id;
        loc_id
    };

    let mut samples: Vec<(Vec<u64>, Vec<i64>)> = Vec::new();
    for node in profile.node_ids() {
        let n = profile.node(node);
        if n.values().next().is_none() {
            continue;
        }
        // Walk parent pointers: leaf-first, exactly pprof's order.
        let mut loc_chain: Vec<u64> = Vec::new();
        let mut step = Some(node);
        while let Some(current) = step {
            if current == profile.root() {
                break;
            }
            loc_chain.push(loc_for(
                current,
                &mut t,
                &mut strings,
                &mut string_ids,
                &mut loc_of_node,
            ));
            step = profile.node(current).parent();
        }
        let values: Vec<i64> = profile
            .metrics()
            .iter()
            .enumerate()
            .map(|(i, _)| profile.value(node, MetricId::from_index(i)) as i64)
            .collect();
        samples.push((loc_chain, values));
    }

    let mut sample_type_sids: Vec<(i64, i64)> = Vec::new();
    for metric in profile.metrics() {
        let ty = intern_in(&metric.name, &mut strings, &mut string_ids);
        let unit = intern_in(unit_to_str(metric.unit), &mut strings, &mut string_ids);
        sample_type_sids.push((ty, unit));
    }

    let mut w = Writer::with_capacity(samples.len() * 32 + strings.len() * 16);
    for &(ty, unit) in &sample_type_sids {
        w.write_message_with(1, |m| {
            if ty != 0 {
                m.write_int64(1, ty);
            }
            if unit != 0 {
                m.write_int64(2, unit);
            }
        });
    }
    for (loc_chain, values) in &samples {
        w.write_message_with(2, |m| {
            m.write_packed_uint64(1, loc_chain);
            m.write_packed_int64(2, values);
        });
    }
    for &(id, filename) in &t.mappings {
        w.write_message_with(3, |m| {
            m.write_uint64(1, id);
            if filename != 0 {
                m.write_int64(5, filename);
            }
        });
    }
    for &(id, mapping, address, function, line) in &t.locations {
        w.write_message_with(4, |m| {
            m.write_uint64(1, id);
            if mapping != 0 {
                m.write_uint64(2, mapping);
            }
            if address != 0 {
                m.write_uint64(3, address);
            }
            m.write_message_with(4, |lm| {
                lm.write_uint64(1, function);
                if line != 0 {
                    lm.write_int64(2, line);
                }
            });
        });
    }
    for &(id, name, filename) in &t.functions {
        w.write_message_with(5, |m| {
            m.write_uint64(1, id);
            if name != 0 {
                m.write_int64(2, name);
            }
            if filename != 0 {
                m.write_int64(4, filename);
            }
        });
    }
    for s in &strings {
        w.write_string(6, s);
    }
    if profile.meta().timestamp_nanos != 0 {
        w.write_int64(9, profile.meta().timestamp_nanos as i64);
    }

    let body = w.into_bytes();
    if options.gzip {
        gzip_compress(&body, options.level)
    } else {
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, NodeId};

    fn sample_profile() -> Profile {
        let mut p = Profile::new("s");
        let cpu = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Nanoseconds,
            MetricKind::Exclusive,
        ));
        let allocs = p.add_metric(MetricDescriptor::new(
            "alloc_space",
            MetricUnit::Bytes,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[
                Frame::function("main").with_module("app").with_source("main.go", 10),
                Frame::function("handler").with_module("app").with_source("h.go", 20),
            ],
            &[(cpu, 500.0), (allocs, 1024.0)],
        );
        p.add_sample(
            &[
                Frame::function("main").with_module("app").with_source("main.go", 10),
                Frame::function("gc").with_module("runtime"),
            ],
            &[(cpu, 300.0)],
        );
        p
    }

    #[test]
    fn roundtrip_preserves_structure_and_totals() {
        let p = sample_profile();
        let bytes = write(&p, WriteOptions::default());
        assert!(is_gzip(&bytes));
        let q = parse(&bytes).unwrap();
        q.validate().unwrap();
        assert_eq!(q.node_count(), p.node_count());
        assert_eq!(q.metrics().len(), 2);
        assert!(q.metric_by_name("cpu").is_some());
        let cpu = q.metric_by_name("cpu").unwrap();
        assert_eq!(q.total(cpu), 800.0);
        let alloc = q.metric_by_name("alloc_space").unwrap();
        assert_eq!(q.total(alloc), 1024.0);
        // Units survive.
        assert_eq!(q.metric(cpu).unit, MetricUnit::Nanoseconds);
        assert_eq!(q.metric(alloc).unit, MetricUnit::Bytes);
    }

    #[test]
    fn roundtrip_uncompressed() {
        let p = sample_profile();
        let bytes = write(
            &p,
            WriteOptions {
                gzip: false,
                level: CompressionLevel::Store,
            },
        );
        assert!(!is_gzip(&bytes));
        let q = parse(&bytes).unwrap();
        assert_eq!(q.node_count(), p.node_count());
    }

    #[test]
    fn call_paths_survive() {
        let p = sample_profile();
        let q = parse(&write(&p, WriteOptions::default())).unwrap();
        // Find handler and verify its parent is main.
        let handler = q
            .node_ids()
            .find(|&id| q.resolve_frame(id).name == "handler")
            .unwrap();
        let parent = q.node(handler).parent().unwrap();
        assert_eq!(q.resolve_frame(parent).name, "main");
        assert_eq!(q.resolve_frame(parent).line, 10);
        assert_eq!(q.resolve_frame(handler).file, "h.go");
        assert_eq!(q.resolve_frame(handler).module, "app");
    }

    #[test]
    fn more_sample_types_than_metrics_is_a_schema_error() {
        let body = |types: usize| {
            let mut w = Writer::new();
            for _ in 0..types {
                w.write_message_with(1, |m| m.write_int64(1, 1));
            }
            w.write_string(6, "");
            w.write_string(6, "cpu");
            w.as_bytes().to_vec()
        };
        assert_eq!(parse(&body(65_535)).unwrap().metrics().len(), 65_535);
        let bytes = body(65_536);
        let expect = FormatError::Schema("65536 sample types, at most 65535 allowed".to_owned());
        assert_eq!(parse(&bytes).unwrap_err(), expect);
        assert_eq!(parse_reference(&bytes).unwrap_err(), expect);
        let streamed = parse_streaming_with(&bytes, ExecPolicy::SEQUENTIAL, 4096);
        assert_eq!(streamed.unwrap_err(), expect);
    }

    #[test]
    fn hand_built_pprof_with_inlining() {
        // Build a raw pprof message by hand: one sample through a
        // location with two inline lines.
        let mut w = Writer::new();
        // sample_type { type: "cpu"(1), unit: "count"(2) }
        w.write_message_with(1, |m| {
            m.write_int64(1, 1);
            m.write_int64(2, 2);
        });
        // sample { location_id: [1], value: [7] }
        w.write_message_with(2, |m| {
            m.write_packed_uint64(1, &[1]);
            m.write_packed_int64(2, &[7]);
        });
        // location { id: 1, line: [{fn 1, line 5}, {fn 2, line 50}] }
        // line[0] = leaf-most inline frame (callee).
        w.write_message_with(4, |m| {
            m.write_uint64(1, 1);
            m.write_message_with(4, |lm| {
                lm.write_uint64(1, 1);
                lm.write_int64(2, 5);
            });
            m.write_message_with(4, |lm| {
                lm.write_uint64(1, 2);
                lm.write_int64(2, 50);
            });
        });
        // functions: 1 = "inlined_callee", 2 = "caller"
        w.write_message_with(5, |m| {
            m.write_uint64(1, 1);
            m.write_int64(2, 3);
        });
        w.write_message_with(5, |m| {
            m.write_uint64(1, 2);
            m.write_int64(2, 4);
        });
        for s in ["", "cpu", "count", "inlined_callee", "caller"] {
            w.write_string(6, s);
        }
        let profile = parse(w.as_bytes()).unwrap();
        profile.validate().unwrap();
        // Expect root -> caller -> inlined_callee with value at the leaf.
        let leaf = profile
            .node_ids()
            .find(|&id| profile.resolve_frame(id).name == "inlined_callee")
            .unwrap();
        let caller = profile.node(leaf).parent().unwrap();
        assert_eq!(profile.resolve_frame(caller).name, "caller");
        let cpu = profile.metric_by_name("cpu").unwrap();
        assert_eq!(profile.value(leaf, cpu), 7.0);
        assert_eq!(profile.value(caller, cpu), 0.0);
    }

    #[test]
    fn unknown_location_is_schema_error() {
        let mut w = Writer::new();
        w.write_message_with(2, |m| {
            m.write_packed_uint64(1, &[42]);
            m.write_packed_int64(2, &[1]);
        });
        w.write_string(6, "");
        let err = parse(w.as_bytes()).unwrap_err();
        assert!(matches!(err, FormatError::Schema(_)), "{err:?}");
    }

    #[test]
    fn unsymbolized_location_synthesizes_address_frame() {
        let mut w = Writer::new();
        w.write_message_with(1, |m| {
            m.write_int64(1, 1);
            m.write_int64(2, 2);
        });
        w.write_message_with(2, |m| {
            m.write_packed_uint64(1, &[1]);
            m.write_packed_int64(2, &[3]);
        });
        w.write_message_with(4, |m| {
            m.write_uint64(1, 1);
            m.write_uint64(3, 0xdeadbeef);
        });
        for s in ["", "samples", "count"] {
            w.write_string(6, s);
        }
        let profile = parse(w.as_bytes()).unwrap();
        let leaf = profile
            .node_ids()
            .find(|&id| profile.node(id).children().is_empty() && id != NodeId::ROOT)
            .unwrap();
        assert_eq!(profile.resolve_frame(leaf).name, "0xdeadbeef");
        assert_eq!(profile.resolve_frame(leaf).address, 0xdeadbeef);
    }

    #[test]
    fn empty_profile_parses() {
        let profile = parse(&[]).unwrap();
        assert_eq!(profile.node_count(), 1);
        assert!(profile.metrics().is_empty());
    }

    /// Chunk sizes covering the degenerate (1 byte), the
    /// mid-stream-suspend, and the everything-in-one-pull regimes.
    const CHUNK_SIZES: [usize; 4] = [1, 13, 4096, 1 << 24];

    #[test]
    fn streaming_matches_buffered_on_roundtrip() {
        let p = sample_profile();
        for gz in [true, false] {
            let bytes = write(
                &p,
                WriteOptions {
                    gzip: gz,
                    level: CompressionLevel::Fast,
                },
            );
            let buffered = parse(&bytes).unwrap();
            for &chunk in &CHUNK_SIZES {
                for threads in [1, 4] {
                    let streamed =
                        parse_streaming_with(&bytes, ExecPolicy::with_threads(threads), chunk)
                            .unwrap();
                    assert_eq!(streamed, buffered, "gzip={gz} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn streaming_matches_buffered_on_errors() {
        let p = sample_profile();
        let good = write(&p, WriteOptions::default());
        let mut corrupt = good.clone();
        let n = corrupt.len();
        corrupt[n / 2] ^= 0xff;
        let mut bad_trailer = good.clone();
        let n = bad_trailer.len();
        bad_trailer[n - 6] ^= 0x01; // CRC byte
        let raw = write(
            &p,
            WriteOptions {
                gzip: false,
                level: CompressionLevel::Store,
            },
        );
        let truncated_raw = &raw[..raw.len() - 3];
        for case in [&corrupt[..], &bad_trailer, truncated_raw, &good[..n - 5]] {
            let buffered = parse(case);
            for &chunk in &CHUNK_SIZES {
                for threads in [1, 4] {
                    let streamed =
                        parse_streaming_with(case, ExecPolicy::with_threads(threads), chunk);
                    assert_eq!(streamed, buffered, "chunk={chunk} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn streaming_surfaces_schema_error_identically() {
        let mut w = Writer::new();
        w.write_message_with(2, |m| {
            m.write_packed_uint64(1, &[42]);
            m.write_packed_int64(2, &[1]);
        });
        w.write_string(6, "");
        let buffered = parse(w.as_bytes());
        for &chunk in &CHUNK_SIZES {
            let streamed =
                parse_streaming_with(w.as_bytes(), ExecPolicy::SEQUENTIAL, chunk);
            assert_eq!(streamed, buffered);
        }
    }

    #[test]
    fn corrupted_gzip_is_container_error() {
        let p = sample_profile();
        let mut bytes = write(&p, WriteOptions::default());
        let n = bytes.len();
        bytes[n / 2] ^= 0xff;
        assert!(matches!(
            parse(&bytes),
            Err(FormatError::Container(_)) | Err(FormatError::Schema(_))
        ));
    }
}

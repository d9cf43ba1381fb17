//! `ev-xml` — a minimal XML pull parser, the substrate for EasyView's
//! HPCToolkit data binding.
//!
//! HPCToolkit databases (paper §IV-B, §VII-C2) describe the calling
//! context tree in an `experiment.xml` file: nested `PF` (procedure
//! frame), `L` (loop), `S` (statement), and `M` (metric value) elements
//! with attribute tables for procedures, files, and metrics. This parser
//! covers the subset of XML those files use: elements, attributes,
//! self-closing tags, character data, comments, processing instructions,
//! CDATA, and the five predefined entities plus numeric character
//! references. It does not implement DTDs or namespaces — HPCToolkit
//! files use neither.
//!
//! # Examples
//!
//! ```
//! use ev_xml::{Event, PullParser};
//!
//! # fn main() -> Result<(), ev_xml::XmlError> {
//! let mut p = PullParser::new("<PF n=\"main\"><S l=\"10\"/></PF>");
//! let Some(Event::Start(tag)) = p.next_event()? else { panic!() };
//! assert_eq!(tag.name, "PF");
//! assert_eq!(tag.attr("n"), Some("main"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt;

/// An error with byte-offset position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// What went wrong.
    pub kind: XmlErrorKind,
    /// Byte offset of the offending input.
    pub offset: usize,
}

/// The category of an [`XmlError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// Input ended inside a construct.
    UnexpectedEof,
    /// A malformed tag, attribute, or entity.
    Malformed(&'static str),
    /// A close tag did not match the innermost open tag.
    MismatchedCloseTag {
        /// Tag that was open.
        expected: String,
        /// Tag that tried to close.
        found: String,
    },
    /// An entity reference this parser does not define.
    UnknownEntity(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            XmlErrorKind::UnexpectedEof => write!(f, "unexpected end of xml"),
            XmlErrorKind::Malformed(what) => write!(f, "malformed xml: {what}"),
            XmlErrorKind::MismatchedCloseTag { expected, found } => {
                write!(f, "close tag </{found}> does not match <{expected}>")
            }
            XmlErrorKind::UnknownEntity(name) => write!(f, "unknown entity &{name};"),
        }?;
        write!(f, " at byte {}", self.offset)
    }
}

impl Error for XmlError {}

/// An opening (or self-closing) tag with its attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartTag {
    /// Element name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// `true` for `<x/>`.
    pub self_closing: bool,
}

impl StartTag {
    /// Returns the value of the attribute named `name`.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Returns an attribute parsed as `u64`.
    pub fn attr_u64(&self, name: &str) -> Option<u64> {
        self.attr(name)?.parse().ok()
    }

    /// Returns an attribute parsed as `f64`.
    pub fn attr_f64(&self, name: &str) -> Option<f64> {
        self.attr(name)?.parse().ok()
    }
}

/// A pull-parsing event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An opening tag. For self-closing tags a matching [`Event::End`] is
    /// synthesized immediately after, so consumers can keep a simple
    /// open/close stack.
    Start(StartTag),
    /// A closing tag (real or synthesized).
    End(String),
    /// Character data between tags, entity-decoded. Whitespace-only runs
    /// are skipped.
    Text(String),
}

/// A pull parser over an XML document.
#[derive(Debug)]
pub struct PullParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    stack: Vec<String>,
    /// Pending synthesized end tag for a self-closing element.
    pending_end: Option<String>,
}

impl<'a> PullParser<'a> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str) -> PullParser<'a> {
        PullParser {
            bytes: input.as_bytes(),
            pos: 0,
            stack: Vec::new(),
            pending_end: None,
        }
    }

    fn err(&self, kind: XmlErrorKind) -> XmlError {
        XmlError {
            kind,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_until(&mut self, terminator: &str) -> Result<(), XmlError> {
        let t = terminator.as_bytes();
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos..].starts_with(t) {
                self.pos += t.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err(XmlErrorKind::UnexpectedEof))
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err(XmlErrorKind::Malformed("expected a name")));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn decode_entities(&self, raw: &str, base: usize) -> Result<String, XmlError> {
        if !raw.contains('&') {
            return Ok(raw.to_owned());
        }
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.char_indices();
        while let Some((i, c)) = chars.next() {
            if c != '&' {
                out.push(c);
                continue;
            }
            let rest = &raw[i + 1..];
            let semi = rest.find(';').ok_or(XmlError {
                kind: XmlErrorKind::Malformed("unterminated entity"),
                offset: base + i,
            })?;
            let entity = &rest[..semi];
            match entity {
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "amp" => out.push('&'),
                "apos" => out.push('\''),
                "quot" => out.push('"'),
                _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                    let cp = u32::from_str_radix(&entity[2..], 16).map_err(|_| XmlError {
                        kind: XmlErrorKind::Malformed("bad numeric entity"),
                        offset: base + i,
                    })?;
                    out.push(char::from_u32(cp).ok_or(XmlError {
                        kind: XmlErrorKind::Malformed("bad numeric entity"),
                        offset: base + i,
                    })?);
                }
                _ if entity.starts_with('#') => {
                    let cp: u32 = entity[1..].parse().map_err(|_| XmlError {
                        kind: XmlErrorKind::Malformed("bad numeric entity"),
                        offset: base + i,
                    })?;
                    out.push(char::from_u32(cp).ok_or(XmlError {
                        kind: XmlErrorKind::Malformed("bad numeric entity"),
                        offset: base + i,
                    })?);
                }
                _ => {
                    return Err(XmlError {
                        kind: XmlErrorKind::UnknownEntity(entity.to_owned()),
                        offset: base + i,
                    })
                }
            }
            // Skip the entity body and the semicolon.
            for _ in 0..semi + 1 {
                chars.next();
            }
        }
        Ok(out)
    }

    fn attribute(&mut self) -> Result<(String, String), XmlError> {
        let key = self.name()?;
        self.skip_whitespace();
        if self.peek() != Some(b'=') {
            return Err(self.err(XmlErrorKind::Malformed("expected '=' after attribute name")));
        }
        self.pos += 1;
        self.skip_whitespace();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err(XmlErrorKind::Malformed("expected quoted attribute value"))),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                break;
            }
            self.pos += 1;
        }
        if self.peek() != Some(quote) {
            return Err(self.err(XmlErrorKind::UnexpectedEof));
        }
        let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.pos += 1;
        let value = self.decode_entities(&raw, start)?;
        Ok((key, value))
    }

    /// Returns the next event, or `None` at end of document.
    ///
    /// # Errors
    ///
    /// Fails on malformed syntax, mismatched close tags, unknown
    /// entities, or a truncated document.
    pub fn next_event(&mut self) -> Result<Option<Event>, XmlError> {
        if let Some(name) = self.pending_end.take() {
            return Ok(Some(Event::End(name)));
        }
        loop {
            if self.pos >= self.bytes.len() {
                if let Some(open) = self.stack.pop() {
                    self.stack.clear();
                    return Err(self.err(XmlErrorKind::MismatchedCloseTag {
                        expected: open,
                        found: "(end of input)".to_owned(),
                    }));
                }
                return Ok(None);
            }
            if self.starts_with("<?") {
                self.skip_until("?>")?;
                continue;
            }
            if self.starts_with("<!--") {
                self.skip_until("-->")?;
                continue;
            }
            if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                self.skip_until(">")?;
                continue;
            }
            if self.starts_with("<![CDATA[") {
                self.pos += 9;
                let start = self.pos;
                self.skip_until("]]>")?;
                let text =
                    String::from_utf8_lossy(&self.bytes[start..self.pos - 3]).into_owned();
                return Ok(Some(Event::Text(text)));
            }
            if self.starts_with("</") {
                self.pos += 2;
                let name = self.name()?;
                self.skip_whitespace();
                if self.peek() != Some(b'>') {
                    return Err(self.err(XmlErrorKind::Malformed("expected '>' in close tag")));
                }
                self.pos += 1;
                match self.stack.pop() {
                    Some(open) if open == name => return Ok(Some(Event::End(name))),
                    Some(open) => {
                        return Err(self.err(XmlErrorKind::MismatchedCloseTag {
                            expected: open,
                            found: name,
                        }))
                    }
                    None => {
                        return Err(self.err(XmlErrorKind::MismatchedCloseTag {
                            expected: "(document root)".to_owned(),
                            found: name,
                        }))
                    }
                }
            }
            if self.peek() == Some(b'<') {
                self.pos += 1;
                let name = self.name()?;
                let mut attributes = Vec::new();
                loop {
                    self.skip_whitespace();
                    match self.peek() {
                        Some(b'>') => {
                            self.pos += 1;
                            self.stack.push(name.clone());
                            return Ok(Some(Event::Start(StartTag {
                                name,
                                attributes,
                                self_closing: false,
                            })));
                        }
                        Some(b'/') => {
                            self.pos += 1;
                            if self.peek() != Some(b'>') {
                                return Err(
                                    self.err(XmlErrorKind::Malformed("expected '/>'"))
                                );
                            }
                            self.pos += 1;
                            self.pending_end = Some(name.clone());
                            return Ok(Some(Event::Start(StartTag {
                                name,
                                attributes,
                                self_closing: true,
                            })));
                        }
                        Some(_) => attributes.push(self.attribute()?),
                        None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
                    }
                }
            }
            // Character data up to the next '<'.
            let start = self.pos;
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
                self.pos += 1;
            }
            let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
            let text = self.decode_entities(&raw, start)?;
            if !text.trim().is_empty() {
                return Ok(Some(Event::Text(text)));
            }
            // Whitespace-only: keep scanning.
        }
    }

    /// Drains the parser, returning all events.
    ///
    /// # Errors
    ///
    /// Propagates the first parse error.
    pub fn into_events(mut self) -> Result<Vec<Event>, XmlError> {
        let mut events = Vec::new();
        while let Some(event) = self.next_event()? {
            events.push(event);
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_test::prelude::*;

    fn events(input: &str) -> Vec<Event> {
        PullParser::new(input).into_events().unwrap()
    }

    fn start(name: &str, attrs: &[(&str, &str)], self_closing: bool) -> Event {
        Event::Start(StartTag {
            name: name.to_owned(),
            attributes: attrs
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
            self_closing,
        })
    }

    #[test]
    fn simple_document() {
        assert_eq!(
            events("<a><b>text</b></a>"),
            vec![
                start("a", &[], false),
                start("b", &[], false),
                Event::Text("text".to_owned()),
                Event::End("b".to_owned()),
                Event::End("a".to_owned()),
            ]
        );
    }

    #[test]
    fn self_closing_synthesizes_end() {
        assert_eq!(
            events(r#"<S l="10" it="62"/>"#),
            vec![
                start("S", &[("l", "10"), ("it", "62")], true),
                Event::End("S".to_owned()),
            ]
        );
    }

    #[test]
    fn attributes_single_and_double_quoted() {
        let evs = events(r#"<m a="1" b='two'/>"#);
        let Event::Start(tag) = &evs[0] else { panic!() };
        assert_eq!(tag.attr("a"), Some("1"));
        assert_eq!(tag.attr("b"), Some("two"));
        assert_eq!(tag.attr("missing"), None);
        assert_eq!(tag.attr_u64("a"), Some(1));
        assert_eq!(tag.attr_f64("a"), Some(1.0));
    }

    #[test]
    fn prolog_comments_doctype_skipped() {
        let doc = "<?xml version=\"1.0\"?>\n<!DOCTYPE hpc>\n<!-- comment -->\n<root/>";
        assert_eq!(
            events(doc),
            vec![start("root", &[], true), Event::End("root".to_owned())]
        );
    }

    #[test]
    fn entities_decoded_in_text_and_attributes() {
        let evs = events(r#"<f n="a&lt;b&gt;&amp;&quot;&apos;">x &#65; &#x42;</f>"#);
        let Event::Start(tag) = &evs[0] else { panic!() };
        assert_eq!(tag.attr("n"), Some("a<b>&\"'"));
        assert_eq!(evs[1], Event::Text("x A B".to_owned()));
    }

    #[test]
    fn cdata_passes_through_raw() {
        let evs = events("<x><![CDATA[a < b & c]]></x>");
        assert_eq!(evs[1], Event::Text("a < b & c".to_owned()));
    }

    #[test]
    fn unknown_entity_is_error() {
        let err = PullParser::new("<x>&nope;</x>").into_events().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnknownEntity("nope".to_owned()));
    }

    #[test]
    fn mismatched_close_tag() {
        let err = PullParser::new("<a><b></a></b>").into_events().unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::MismatchedCloseTag { .. }));
    }

    #[test]
    fn unclosed_tag_at_eof() {
        let err = PullParser::new("<a><b></b>").into_events().unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::MismatchedCloseTag { .. }));
    }

    #[test]
    fn truncated_constructs() {
        for doc in ["<a", "<a b", "<a b=", "<a b=\"v", "<!-- never closed", "<![CDATA[x"] {
            assert!(PullParser::new(doc).into_events().is_err(), "{doc:?}");
        }
    }

    #[test]
    fn whitespace_only_text_skipped() {
        assert_eq!(
            events("<a>\n  <b/>\n</a>"),
            vec![
                start("a", &[], false),
                start("b", &[], true),
                Event::End("b".to_owned()),
                Event::End("a".to_owned()),
            ]
        );
    }

    #[test]
    fn hpctoolkit_like_fragment() {
        let doc = r#"<?xml version="1.0"?>
<HPCToolkitExperiment version="2.2">
  <SecCallPathProfile i="0" n="lulesh">
    <SecHeader>
      <MetricTable>
        <Metric i="2" n="CPUTIME (sec):Sum (I)" v="derived-incr" t="inclusive"/>
      </MetricTable>
    </SecHeader>
    <SecCallPathProfileData>
      <PF i="2" s="644" l="0" lm="2" f="6" n="648">
        <C i="5" s="685" l="2756">
          <PF i="6" s="1288" l="0" lm="2" f="6" n="1292">
            <S i="8" s="1299" l="1478"><M n="2" v="2.75"/></S>
          </PF>
        </C>
      </PF>
    </SecCallPathProfileData>
  </SecCallPathProfile>
</HPCToolkitExperiment>"#;
        let evs = events(doc);
        let starts: Vec<&str> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Start(t) => Some(t.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            starts,
            [
                "HPCToolkitExperiment",
                "SecCallPathProfile",
                "SecHeader",
                "MetricTable",
                "Metric",
                "SecCallPathProfileData",
                "PF",
                "C",
                "PF",
                "S",
                "M"
            ]
        );
        // The metric value element carries its payload in attributes.
        let metric = evs.iter().find_map(|e| match e {
            Event::Start(t) if t.name == "M" => Some(t.clone()),
            _ => None,
        });
        assert_eq!(metric.unwrap().attr_f64("v"), Some(2.75));
    }

    property! {
        fn arbitrary_input_never_panics(s in string_printable(0..65)) {
            let _ = PullParser::new(&s).into_events();
        }

        fn balanced_documents_roundtrip(names in vec(string_from("abcdefghijklmnopqrstuvwxyz", 1..9), 1..20)) {
            // Build a nested document from the name list.
            let mut doc = String::new();
            for n in &names {
                doc.push('<');
                doc.push_str(n);
                doc.push('>');
            }
            for n in names.iter().rev() {
                doc.push_str("</");
                doc.push_str(n);
                doc.push('>');
            }
            let evs = PullParser::new(&doc).into_events().unwrap();
            prop_assert_eq!(evs.len(), names.len() * 2);
        }
    }
}

//! Renderers: SVG (documents) and ANSI (terminals) over a
//! [`FlameGraph`] layout.
//!
//! These replace the WebGL canvas of the VSCode extension; the geometry
//! they draw is identical ([`FlameRect`] carries normalized positions).

use crate::layout::{FlameGraph, FlameRect};
use std::fmt::Write as _;

/// Options for [`svg`].
#[derive(Debug, Clone)]
pub struct SvgOptions {
    /// Canvas width in pixels.
    pub width: u32,
    /// Row height in pixels.
    pub row_height: u32,
    /// Indices into [`FlameGraph::rects`] to highlight.
    pub highlights: Vec<usize>,
}

impl Default for SvgOptions {
    fn default() -> SvgOptions {
        SvgOptions {
            width: 1200,
            row_height: 18,
            highlights: Vec::new(),
        }
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Renders the flame graph as a standalone SVG document. Each frame is a
/// `<rect>` with a `<title>` tooltip carrying the label and metric
/// values (the hover of §VI-B).
pub fn svg(graph: &FlameGraph, options: &SvgOptions) -> String {
    let _span = ev_trace::span("flame.render");
    let width = f64::from(options.width);
    let row = f64::from(options.row_height);
    let height = (graph.max_depth() + 1) as f64 * row;
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" font-family="monospace" font-size="11">"#,
        options.width, height as u32
    );
    let _ = writeln!(
        out,
        r##"<rect width="100%" height="100%" fill="#ffffff"/>"##
    );
    for (i, rect) in graph.rects().iter().enumerate() {
        let x = rect.x * width;
        let w = (rect.width * width).max(0.5);
        let y = rect.depth as f64 * row;
        let highlighted = options.highlights.contains(&i);
        let fill = if highlighted {
            "#c040e0".to_owned()
        } else {
            rect.color.to_hex()
        };
        let title = format!(
            "{} — total {:.6}, self {:.6}, {:.2}% of program",
            rect.label,
            rect.value,
            rect.self_value,
            rect.width * 100.0
        );
        let _ = writeln!(
            out,
            r##"<g><title>{}</title><rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{}" stroke="#ffffff" stroke-width="0.5"/>"##,
            xml_escape(&title),
            x,
            y,
            w,
            row - 1.0,
            fill
        );
        // Label only when it plausibly fits (≈6.6 px/char), cut by
        // characters so multi-byte names stay whole.
        let chars = (w / 6.6) as usize;
        if chars >= 3 {
            let mut label: String = rect.label.chars().take(chars).collect();
            if label.len() < rect.label.len() {
                label.pop();
                label.push('…');
            }
            let _ = writeln!(
                out,
                r#"<text x="{:.2}" y="{:.2}">{}</text>"#,
                x + 2.0,
                y + row - 5.0,
                xml_escape(&label)
            );
        }
        out.push_str("</g>\n");
    }
    out.push_str("</svg>\n");
    out
}

/// Renders the flame graph for a terminal: one line per depth row,
/// frames drawn as colored segments with 24-bit ANSI backgrounds.
/// `columns` is the terminal width; pass `color: false` for plain text
/// (used in tests and logs).
pub fn ansi(graph: &FlameGraph, columns: usize, color: bool) -> String {
    let _span = ev_trace::span("flame.render");
    assert!(columns >= 8, "terminal too narrow");
    let mut out = String::new();
    for depth in 0..=graph.max_depth() {
        let mut line = vec![' '; columns];
        let mut spans: Vec<(usize, usize, &FlameRect)> = Vec::new();
        for rect in graph.rects().iter().filter(|r| r.depth == depth) {
            let start = (rect.x * columns as f64).round() as usize;
            let end = ((rect.x + rect.width) * columns as f64).round() as usize;
            let end = end.max(start + 1).min(columns);
            if start >= columns {
                continue;
            }
            // Fill with the label, padded/truncated to the span. Plain
            // text leaves the first column to the boundary pipe below.
            let text_start = if color { start } else { start + 1 };
            let label = rect.label.chars().chain(std::iter::repeat(' '));
            for (cell, ch) in line[text_start..end].iter_mut().zip(label) {
                *cell = ch;
            }
            spans.push((start, end, rect));
        }
        if color {
            // Emit the row segment by segment with background colors.
            let mut cursor = 0usize;
            for (start, end, rect) in &spans {
                if *start > cursor {
                    out.extend(line[cursor..*start].iter());
                }
                let c = rect.color;
                let _ = write!(
                    out,
                    "\x1b[48;2;{};{};{}m\x1b[30m{}\x1b[0m",
                    c.r,
                    c.g,
                    c.b,
                    line[*start..*end].iter().collect::<String>()
                );
                cursor = *end;
            }
            if cursor < columns {
                out.extend(line[cursor..].iter());
            }
        } else {
            // Plain text: mark frame boundaries with pipes.
            for (start, end, _) in &spans {
                line[*start] = '|';
                if *end - 1 > *start {
                    line[*end - 1] = '|';
                }
            }
            out.extend(line.iter());
        }
        // Trim trailing whitespace per row.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};

    fn graph() -> FlameGraph {
        let mut p = Profile::new("t");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[Frame::function("main"), Frame::function("alpha")],
            &[(m, 75.0)],
        );
        p.add_sample(
            &[Frame::function("main"), Frame::function("<b&d>")],
            &[(m, 25.0)],
        );
        FlameGraph::top_down(&p, m)
    }

    #[test]
    fn svg_structure() {
        let g = graph();
        let doc = svg(&g, &SvgOptions::default());
        assert!(doc.starts_with("<svg"));
        assert!(doc.trim_end().ends_with("</svg>"));
        assert_eq!(doc.matches("<rect").count(), 1 + g.rects().len());
        assert!(doc.contains("ROOT"));
        assert!(doc.contains("alpha"));
        // XML escaping of hostile frame names.
        assert!(doc.contains("&lt;b&amp;d&gt;"));
        assert!(!doc.contains("<b&d>"));
    }

    #[test]
    fn svg_highlights_search_results() {
        let g = graph();
        let alpha = g.rects().iter().position(|r| r.label == "alpha").unwrap();
        let doc = svg(
            &g,
            &SvgOptions {
                highlights: vec![alpha],
                ..SvgOptions::default()
            },
        );
        assert!(doc.contains("#c040e0"));
    }

    #[test]
    fn ansi_plain_geometry() {
        let g = graph();
        let text = ansi(&g, 80, false);
        let rows: Vec<&str> = text.lines().collect();
        // ROOT, main, {alpha, <b&d>} = 3 depth rows.
        assert_eq!(rows.len(), 3);
        // Each label starts right after its left boundary pipe.
        assert!(rows[0].starts_with("|ROOT"), "{}", rows[0]);
        assert!(rows[1].starts_with("|main"), "{}", rows[1]);
        assert!(rows[2].starts_with("|alpha"), "{}", rows[2]);
        assert!(rows[2].contains("||<b&d>"), "{}", rows[2]);
        for row in &rows {
            assert!(row.len() <= 80);
        }
    }

    #[test]
    fn svg_cuts_multi_byte_labels_at_characters() {
        // One frame 11× wider than each of three narrow ones whose
        // names are 2-, 3- and 4-byte characters: each narrow rect
        // fits 12 characters, so its label is cut.
        let mut p = Profile::new("t");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[Frame::function("main"), Frame::function("wide")],
            &[(m, 110.0)],
        );
        let names = ["é", "中", "😀"];
        for ch in names {
            p.add_sample(
                &[Frame::function("main"), Frame::function(ch.repeat(40))],
                &[(m, 10.0)],
            );
        }
        let doc = svg(&FlameGraph::top_down(&p, m), &SvgOptions::default());
        for ch in names {
            let cut = format!(">{}…</text>", ch.repeat(11));
            assert!(doc.contains(&cut), "{ch}: {doc}");
        }
    }

    #[test]
    fn ansi_color_contains_escapes() {
        let g = graph();
        let text = ansi(&g, 60, true);
        assert!(text.contains("\x1b[48;2;"));
        assert!(text.contains("\x1b[0m"));
    }

    #[test]
    #[should_panic(expected = "narrow")]
    fn ansi_rejects_tiny_terminal() {
        ansi(&graph(), 4, false);
    }
}

//! The benchmark's own span recorder. In a traced run every call into a
//! layer is wrapped in a span (name, method tag, start, end, parent);
//! spans stay in memory and are written out when the run ends. A
//! layer's self time is its span's duration minus the time its child
//! spans cover. When off, entering a span records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Rec {
    name: &'static str,
    tag: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of one single-threaded recorder.
pub struct Spans {
    on: bool,
    origin: Instant,
    recs: Vec<Rec>,
    stack: Vec<usize>,
}

/// An open span; hand it back to [`Spans::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for request method `tag` ("" when the
    /// span is not part of a request).
    pub fn enter(&mut self, name: &'static str, tag: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.recs.len();
        let start_ns = self.now();
        self.recs.push(Rec {
            name,
            tag,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Spans::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.recs[idx].end_ns = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, tag);
        let r = f();
        self.exit(open);
        r
    }

    /// Self time in milliseconds of every span, grouped by `(name, tag)`.
    pub fn self_ms(&self) -> BTreeMap<(&'static str, &'static str), Vec<f64>> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for rec in &self.recs {
            if let Some(p) = rec.parent {
                child_ns[p] += rec.end_ns - rec.start_ns;
            }
        }
        let mut out: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for (rec, child) in self.recs.iter().zip(child_ns) {
            let own = (rec.end_ns - rec.start_ns).saturating_sub(child);
            out.entry((rec.name, rec.tag))
                .or_default()
                .push(own as f64 / 1e6);
        }
        out
    }

    /// Whole durations in milliseconds of spans named `name`.
    pub fn total_ms(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.name, r.tag, r.start_ns, r.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let outer = s.enter("outer", "");
        s.time("inner", "", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.exit(outer);
        let own = s.self_ms();
        let inner = own[&("inner", "")][0];
        let outer_own = own[&("outer", "")][0];
        let outer_total = s.total_ms("outer")[0];
        assert!(inner >= 5.0);
        assert!((outer_own + inner - outer_total).abs() < 1e-6);
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        s.time("x", "", || ());
        assert!(s.self_ms().is_empty());
    }
}

//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! A span is `(layer, name, id, parent, request, start, end)`. Spans of one
//! timed operation share its `request` number; a span's parent is the
//! span open around it. A layer's busy time is the summed duration of its
//! spans; leaf spans (the calls into a layer) sum to the replayed time.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }
}

impl Tracer {
    /// Starts the spans of timed operation `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as one span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Opens a span; close it with [`Tracer::end`]. Spans opened in
    /// between become its children.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            id,
            parent: self.open.last().copied(),
            request: self.request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    fn duration_ns(span: &Span) -> u64 {
        span.end_ns - span.start_ns
    }

    /// Summed duration of the spans of `layer` named `name` (any name if
    /// `None`), in milliseconds.
    pub fn busy_ms(&self, layer: &str, name: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && name.is_none_or(|n| s.name == n))
            .map(|s| Self::duration_ns(s) as f64)
            .sum::<f64>()
            / 1e6
    }

    /// Number of spans of `layer` named `name`.
    pub fn count(&self, layer: &str, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.layer == layer && s.name == name).count() as u64
    }

    /// Busy time of every leaf span (spans with no children), the time
    /// the replay spent inside layer calls, in milliseconds.
    pub fn leaf_busy_ms(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p as usize] = true;
            }
        }
        self.spans
            .iter()
            .zip(&has_child)
            .filter(|(_, &c)| !c)
            .map(|(s, _)| Self::duration_ns(s) as f64)
            .sum::<f64>()
            / 1e6
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"layer\": \"{}\", \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
                 \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.layer, s.name, s.id, s.request, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_spans_are_the_layer_calls() {
        let mut t = Tracer::default();
        let outer = t.begin("dssa", "job");
        t.span("diffusion", "extend", || std::thread::sleep(std::time::Duration::from_millis(3)));
        t.end(outer);
        let busy = t.busy_ms("dssa", None);
        let child = t.busy_ms("diffusion", None);
        assert!(child >= 3.0 && busy >= child);
        assert!((t.leaf_busy_ms() - child).abs() < 1e-6);
        assert_eq!(t.spans[1].parent, Some(outer));
    }
}

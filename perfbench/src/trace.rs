//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans stay in memory while the run measures and are written out
//! once, when it ends.

use crate::report::json_str;
use std::io::Write;
use std::time::Instant;

/// One timed call: its layer name, its interval on the run's clock, the
/// span that caused it, and the request it served (if any).
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: &'static str, request: Option<usize>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let t = self.now();
        self.spans.push(Span { name, parent, request, start_s: t, end_s: t });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_s = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// The first span named `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Seconds of span `id` covered by its direct children.
    pub fn children_seconds(&self, id: usize) -> f64 {
        self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::seconds).sum()
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        self.spans[id].seconds() - self.children_seconds(id)
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes every span as one JSON document, with the run metadata.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        meta: &[(&str, String)],
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"meta\": {{")?;
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}{}: {}", json_str(k), json_str(v))?;
        }
        writeln!(out, "}}, \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"request\": {request}, \
                 \"start_s\": {}, \"end_s\": {}}}{sep}",
                json_str(s.name),
                s.start_s,
                s.end_s
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::Tracer;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.enter("setup", None);
        t.span("child", None, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit(root);
        assert_eq!(t.get(1).parent, Some(root));
        assert!(t.children_seconds(root) >= 0.002);
        assert!(t.self_seconds(root) >= 0.0);
        assert!(
            (t.self_seconds(root) + t.children_seconds(root) - t.get(root).seconds()).abs() < 1e-12
        );
    }
}

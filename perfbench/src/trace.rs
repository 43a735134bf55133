//! In-memory spans around the benchmark's calls into each layer, written
//! out as a Chrome trace (`chrome://tracing`, Perfetto) when a run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Writes the spans as complete (`"ph": "X"`) events; each carries its
    /// parent's id in `args`.
    pub fn write(&self, path: &Path) {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
                if id > 0 { ",\n" } else { "" },
                s.name,
                s.start_us,
                s.end_us - s.start_us
            );
        }
        out.push_str("\n]}\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("perfbench: cannot write trace {}: {e}", path.display());
        }
    }
}

//! The benchmark's own spans, recorded around its calls into each layer:
//! name, start, end, the span that caused it, and the request's trace
//! identifier. Kept in memory and written out when the run ends.

use crate::report::json_string;
use crate::workloads::Sample;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
    trace_id: Option<String>,
    derived: bool,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that starts now and returns its id.
    pub fn open(&mut self, parent: Option<usize>, name: &str) -> usize {
        let now_ns = self.ns(Instant::now());
        self.spans.push(Span {
            parent,
            name: name.into(),
            start_ns: now_ns,
            end_ns: now_ns,
            trace_id: None,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records `request[index]` and its children under `parent`.
    pub fn request(&mut self, parent: usize, index: usize, sample: &Sample) {
        let start_ns = self.ns(sample.started);
        self.spans.push(Span {
            parent: Some(parent),
            name: format!("request[{index}]"),
            start_ns,
            end_ns: start_ns + sample.wall_ns,
            trace_id: sample.trace_id.clone(),
            derived: false,
        });
        let request = self.spans.len() - 1;
        for child in &sample.children {
            self.spans.push(Span {
                parent: Some(request),
                name: child.name.clone(),
                start_ns: start_ns + child.offset_ns,
                end_ns: start_ns + child.offset_ns + child.dur_ns,
                trace_id: sample.trace_id.clone(),
                derived: child.derived,
            });
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"id\":{id},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"trace_id\":{},\"derived\":{}}}",
                if id > 0 { ",\n" } else { "" },
                s.parent.map_or("null".into(), |p| p.to_string()),
                json_string(&s.name),
                s.start_ns,
                s.end_ns,
                s.trace_id
                    .as_deref()
                    .map_or("null".into(), json_string),
                s.derived
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

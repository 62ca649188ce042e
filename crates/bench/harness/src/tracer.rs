//! In-memory spans recorded from the harness's own files, around the calls
//! into each layer. Nothing inside the library is instrumented; a span is
//! what the harness saw between two clock reads.

use std::time::Instant;

/// One recorded interval. `parent` indexes into the same span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Layer calls (or packets, or events) the span covers.
    pub calls: u64,
    /// Extra counts taken at the span boundary, e.g. engine events and
    /// pool hits of one simulated slice.
    pub counts: Vec<(&'static str, u64)>,
}

/// Span sink of one process. Off for timed runs: `open`/`close` then cost
/// one branch and record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Pause or resume recording (the traced run alternates traced and
    /// untraced reps in one process).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            calls: 0,
            counts: Vec::new(),
        });
    }

    /// Close the innermost open span.
    pub fn close(&mut self, calls: u64, counts: Vec<(&'static str, u64)>) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.stack.pop().expect("close without open");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.calls = calls;
        span.counts = counts;
    }

    /// Record a finished leaf span from clock reads the caller already
    /// took for its own accounting.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, calls: u64) {
        if !self.on {
            return;
        }
        let rel = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: rel(start),
            end_ns: rel(end),
            parent: self.stack.last().copied(),
            calls,
            counts: Vec::new(),
        });
    }

    /// Per span name, over the spans below a span named `root`: (total
    /// self time in ns, calls). Self time is a span's duration minus the
    /// part its direct children cover.
    pub fn self_times_under(&self, root: &str) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut under = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
                // Parents are recorded before their children.
                under[i] = under[p] || self.spans[p].name == root;
            }
        }
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(i, _)| under[*i]) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += s.calls;
                }
                None => out.push((s.name, own, s.calls)),
            }
        }
        out
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \
                 \"workload\": \"{workload}\", \"calls\": {}, \"counts\": {{{}}}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.calls,
                counts.join(", "),
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

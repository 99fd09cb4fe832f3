//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing here reaches into the program: a
//! span is the wall time of one call as seen by its caller.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (traced round) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder. Spans nest through [`Tracer::span`]'s closure.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    /// Starts a new request: spans opened from now on carry its id.
    pub fn begin_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// The current request id.
    pub fn request(&self) -> u64 {
        self.request
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Each span's self time in seconds: its duration minus the part its
    /// child spans cover (children of one span never overlap, since the
    /// benchmark calls them one after another).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.secs();
            }
        }
        out
    }

    /// Per span name, the self time summed within each request, one value
    /// per request that has the name.
    pub fn self_by_request(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let self_secs = self.self_secs();
        let mut sums: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (s, secs) in self.spans.iter().zip(self_secs) {
            *sums.entry((s.name, s.request)).or_default() += secs;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), secs) in sums {
            out.entry(name).or_default().push(secs);
        }
        out
    }

    /// The spans as JSON lines, written out once the run has ended.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.begin_request();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let selfs = t.self_secs();
        assert!(selfs[1] >= 0.02);
        assert!(selfs[0] < selfs[1]);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.self_by_request()["inner"].len(), 1);
    }
}

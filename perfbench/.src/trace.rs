//! In-memory span recorder with JSON-lines and Chrome trace-event export.
//!
//! Spans are opened around the benchmark's own calls into each layer's
//! public functions. Each span records its name, start, end, the span
//! that caused it, and the step it belongs to (spans of one step share
//! that identifier). Spans stay in memory until the benchmark exports them
//! at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub step: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans on the calling thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    next_id: u64,
    step: u64,
}

impl Tracer {
    // flcheck: det-absorb — span times are timing metadata only.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            step: 0,
        }
    }

    /// A tracer whose spans only run their closure and record nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Tags every span opened from now on with `step`.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            step: self.step,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`, in close order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Total self time per span name: each span's duration minus the time
    /// its direct children cover. Children run on the tracer's thread one
    /// after another, so their durations never overlap.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child_ns.get(&s.id).unwrap_or(&0));
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// One JSON object per span, one per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"step\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, parent, s.step, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Chrome trace-event JSON (complete events, microseconds), as
    /// Perfetto and chrome://tracing open it.
    pub fn to_chrome_trace(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        // Parents before children at equal start, so viewers nest them.
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let events: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {}, \
                     \"parent\": {}, \"step\": {}}}}}",
                    s.name,
                    s.name.split('.').next().unwrap_or(s.name),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.step
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new();
        t.set_step(3);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(spans.iter().all(|s| s.step == 3));
        let selfs = t.self_seconds();
        let outer_self = selfs["outer"];
        assert!((outer_self - (outer.seconds() - inner.seconds())).abs() < 1e-9);
        assert!(outer_self >= 0.004, "{outer_self}");
        assert_eq!(t.to_json_lines().lines().count(), 2);
        let chrome = t.to_chrome_trace();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\": \"X\""));
    }
}

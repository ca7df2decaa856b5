//! The probe's own span recorder: every call into a layer is wrapped in
//! a span `{name, start, end, parent}` held in memory and written out as
//! a Chrome trace after the run. Nothing is recorded inside the program;
//! the spans sit around the calls, in this file's callers.

use std::time::Instant;

/// No parent: a top-level span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one probe run, recorded from the probe's main thread only.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// Pre-sized so recording never reallocates inside a timed region.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(n),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything left open inside it); its duration.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id as usize].dur_ns()
    }

    /// Run `f` inside a span; its result and the span's nanoseconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name);
        let r = f();
        (r, self.close(id))
    }

    /// Close everything still open (a section panicked mid-span).
    pub fn unwind(&mut self) {
        if let Some(&outermost) = self.open.first() {
            self.close(outermost);
        }
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto). `workload` is the
    /// category of every event; `args` carries the parent span's index.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut s = String::with_capacity(self.spans.len() * 120 + 64);
        let self_ns = self.self_ns();
        s.push_str("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = if sp.parent == ROOT {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"self_ns\":{}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns() as f64 / 1e3,
                self_ns[i],
            ));
        }
        s.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut s = Spans::with_capacity(8);
        let outer = s.open("outer");
        let ((), a) = s.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let ((), b) = s.time("child", || ());
        let total = s.close(outer);
        assert_eq!(s.all()[1].parent, outer);
        assert_eq!(s.all()[2].parent, outer);
        assert_eq!(s.all()[0].parent, ROOT);
        assert!(total >= a + b);
        assert_eq!(s.self_ns()[outer as usize], total - a - b);
        assert_eq!(s.durations("child").len(), 2);
    }

    #[test]
    fn unwind_closes_what_a_panic_left_open() {
        let mut s = Spans::with_capacity(8);
        let a = s.open("a");
        s.open("b");
        s.unwind();
        assert!(s.all()[a as usize].end_ns >= s.all()[1].end_ns);
        let c = s.open("c");
        assert_eq!(s.all()[c as usize].parent, ROOT, "stack is empty again");
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let mut s = Spans::with_capacity(4);
        s.time("x", || ());
        s.time("y", || ());
        let t = s.chrome_trace("w");
        assert_eq!(t.matches("\"ph\":\"X\"").count(), 2);
        assert!(t.contains("\"cat\":\"w\"") && t.contains("\"parent\":null"));
    }
}

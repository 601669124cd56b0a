//! In-memory spans around the benchmark's own calls into the
//! simulator's crates, written out at the end as a Chrome
//! `trace_event` file through `snap_telemetry::ChromeTrace`.
//!
//! A span is `(name, start, end, parent, request id)` on one thread's
//! track. Spans nest through a per-thread stack; the request id ties
//! every span of one fleet cycle or one served tenant together. A
//! disabled tracer records nothing and never reads the clock.

use snap_telemetry::{ChromeTrace, Value};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub request: u64,
    /// Work counted inside the span (calls, nodes, bytes, ...).
    pub args: Vec<(&'static str, i64)>,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tid: i64,
    thread: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span; [`Tracer::end`] closes it.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer for thread track `tid`. All tracers of one run share
    /// `origin`, so their tracks line up.
    pub fn new(enabled: bool, origin: Instant, tid: i64, thread: &str) -> Tracer {
        Tracer {
            enabled,
            origin,
            tid,
            thread: thread.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off between spans (none may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "no span is open");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            args: Vec::new(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close `span`, attaching its work counts.
    pub fn end(&mut self, span: Open, args: &[(&'static str, i64)]) {
        let Some(idx) = span.0 else { return };
        let end = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.args.extend_from_slice(args);
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
        self.open.pop();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Render every tracer's spans as one Chrome trace: one track per
/// tracer, each span a complete slice whose args carry its id, parent
/// id, request id and work counts.
pub fn chrome(process: &str, tracers: &[&Tracer]) -> String {
    let mut out = ChromeTrace::new();
    out.process_name(process);
    for t in tracers {
        out.thread_name(t.tid, &t.thread);
        for (i, s) in t.spans.iter().enumerate() {
            let mut args = Value::obj();
            args.set("span", Value::Int(span_id(t.tid, i)));
            args.set(
                "parent",
                s.parent
                    .map_or(Value::Null, |p| Value::Int(span_id(t.tid, p))),
            );
            args.set("request", Value::Int(s.request as i64));
            for (k, v) in &s.args {
                args.set(k, Value::Int(*v));
            }
            out.complete(t.tid, s.name, s.start_ns * 1_000, s.end_ns * 1_000, args);
        }
    }
    out.to_json()
}

/// Trace-wide span id: track in the high bits, index in the low.
fn span_id(tid: i64, idx: usize) -> i64 {
    (tid << 32) | idx as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_a_valid_trace() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin, 1, "main");
        let outer = t.begin("cycle", 7);
        let asm = t.begin("snap-asm.assemble", 7);
        t.end(asm, &[]);
        let inner = t.begin("snap-net.run", 7);
        t.end(inner, &[("slices", 3)]);
        t.end(outer, &[]);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[1].parent, s[2].parent, s[0].parent),
            (Some(0), Some(0), None)
        );
        assert!(s.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert_eq!(s[2].args, [("slices", 3)]);
        let mut other = Tracer::new(true, origin, 2, "client");
        let http = other.begin("http", 1);
        other.end(http, &[]);
        let json = chrome("test", &[&t, &other]);
        snap_telemetry::validate_chrome_trace(&json).expect("valid trace");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1, "main");
        let open = t.begin("x", 0);
        t.end(open, &[("n", 1)]);
        assert!(t.spans().is_empty());
    }
}

//! In-memory span recording around calls into the program's crates.
//!
//! Spans are kept in memory while the workload runs and written out
//! when it ends, as Chrome Trace Event Format JSON in the event layout
//! `lancet_sim::to_chrome_trace` writes, so a measured timeline and a
//! simulated one open the same way in Perfetto.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `exec.run` or an op name.
    pub name: String,
    /// Category: the crate called, or the op class in a replay.
    pub cat: String,
    /// Small per-thread id (0 is the first thread that recorded).
    pub tid: usize,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Extra key/value annotations.
    pub args: Vec<(String, String)>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TID: usize = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread: (tracer address, span index).
    static OPEN: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Records spans while enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that starts enabled or disabled.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled: AtomicBool::new(enabled), origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn key(&self) -> usize {
        self as *const Tracer as usize
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn parent(&self) -> Option<usize> {
        let key = self.key();
        OPEN.with(|open| open.borrow().iter().rev().find(|(k, _)| *k == key).map(|&(_, i)| i))
    }

    /// Runs `f` inside a span named `name` of category `cat`.
    pub fn span<T>(&self, name: &str, cat: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let index = {
            let mut spans = self.spans.lock().expect("spans lock");
            spans.push(Span {
                name: name.to_string(),
                cat: cat.to_string(),
                tid: TID.with(|t| *t),
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
                parent: self.parent(),
                args: Vec::new(),
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push((self.key(), index)));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end = self.ns(Instant::now());
        self.spans.lock().expect("spans lock")[index].end_ns = end;
        out
    }

    /// Records an already measured interval under the current open span.
    pub fn record(&self, name: &str, cat: &str, start: Instant, end: Instant, args: Vec<(String, String)>) {
        if !self.enabled() {
            return;
        }
        let span = Span {
            name: name.to_string(),
            cat: cat.to_string(),
            tid: TID.with(|t| *t),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.parent(),
            args,
        };
        self.spans.lock().expect("spans lock").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("spans lock").clone()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.lock().expect("spans lock").iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// The spans as Chrome Trace Event Format JSON: complete (`"X"`)
    /// events with µs timestamps, one track per recording thread.
    pub fn to_chrome_trace(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let mut args: Vec<(String, Json)> = vec![("span".into(), Json::Int(i as i64))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::Int(p as i64)));
            }
            args.extend(s.args.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))));
            let event = Json::obj([
                ("name", Json::str(s.name.clone())),
                ("cat", Json::str(s.cat.clone())),
                ("ph", Json::str("X")),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(s.tid as i64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("args", Json::Obj(args)),
            ]);
            out.push_str("  ");
            out.push_str(&event.render());
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", "a", || t.span("inner", "b", || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", "a", || 7), 7);
        t.record("y", "a", Instant::now(), Instant::now(), Vec::new());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_uses_complete_events() {
        let t = Tracer::new(true);
        t.span("exec.run", "exec", || ());
        let json = t.to_chrome_trace();
        assert!(json.starts_with("[\n") && json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"exec.run\""));
    }
}

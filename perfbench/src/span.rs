//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each crate's public functions; nothing inside the program is
//! instrumented. A span carries its name, start and end (ns since the
//! recorder started), its parent span and a batch or request id. When
//! recording is off `begin` returns at once without reading the clock,
//! so an untraced run pays one thread-local flag load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
    id: u64,
}

#[derive(Debug)]
struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        t0: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for the spans begun after this call.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// An open span; pass it to [`end`]. `None` when recording was off.
#[must_use]
pub struct Open(Option<usize>);

/// Opens a span named `name` for batch or request `id`; its parent is
/// the innermost span still open.
pub fn begin(name: &'static str, id: u64) -> Open {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Open(None);
        }
        let start_ns = r.t0.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let idx = r.spans.len();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        r.open.push(idx);
        Open(Some(idx))
    })
}

/// Closes a span opened by [`begin`]. Spans must close innermost first.
pub fn end(open: Open) {
    let Some(idx) = open.0 else { return };
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.t0.elapsed().as_nanos() as u64;
        r.spans[idx].end_ns = now;
        let top = r.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
    });
}

/// Runs `f` inside a span.
pub fn scope<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    let open = begin(name, id);
    let out = f();
    end(open);
    out
}

/// Per-name totals: `(self ns, whole ns)`. A span's self
/// time is its duration minus the durations of its direct children
/// (children nest strictly inside their parent, so they never
/// overlap each other).
pub fn totals() -> BTreeMap<&'static str, (u64, u64)> {
    REC.with(|r| {
        let r = r.borrow();
        let mut child = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if s.parent != NO_PARENT {
                child[s.parent] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in r.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += dur.saturating_sub(child[i]);
            e.1 += dur;
        }
        out
    })
}

/// Writes every recorded span as one JSON object per line:
/// `{"name", "start_ns", "end_ns", "parent", "id"}` (`parent` is the
/// parent's line number, or -1).
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<usize> {
    let text = REC.with(|r| {
        let r = r.borrow();
        let mut text = String::with_capacity(r.spans.len() * 96);
        for s in &r.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            );
        }
        (text, r.spans.len())
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text.0)?;
    Ok(text.1)
}

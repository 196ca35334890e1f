//! In-memory span recorder for the traced rounds.
//!
//! The benchmark opens a span around every call it makes into a layer:
//! name, start, end, parent and a request id shared by the spans of one
//! operation. Spans stay in memory while the run measures and are written
//! out as JSON when it ends. Outside a traced round [`span`] records
//! nothing and allocates nothing.

use std::cell::RefCell;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

struct Recorder {
    origin: Instant,
    on: bool,
    req: u64,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        on: false,
        req: 0,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Turn recording on or off (between rounds, never inside an operation).
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Start a new operation: later root spans carry a fresh request id.
pub fn next_request() {
    REC.with(|r| r.borrow_mut().req += 1);
}

/// Guard of an open span; the span ends when it drops.
#[must_use = "dropping the guard closes the span at once"]
pub struct Guard(Option<usize>);

/// Open a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let idx = r.spans.len();
        let rec = SpanRec {
            name,
            start_ns: r.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: r.stack.last().copied(),
            req: r.req,
        };
        r.spans.push(rec);
        r.stack.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let now = r.origin.elapsed().as_nanos() as u64;
                r.spans[idx].end_ns = now;
                r.stack.pop();
            });
        }
    }
}

/// A root span (one operation) with the time of its direct children.
#[derive(Debug, Clone)]
pub struct Op {
    /// Duration, seconds.
    pub dur: f64,
    /// Direct children: name and duration in seconds.
    pub children: Vec<(&'static str, f64)>,
}

impl Op {
    /// Seconds spent in direct children named `name`.
    pub fn child(&self, name: &str) -> f64 {
        self.children.iter().filter(|(n, _)| *n == name).map(|(_, d)| d).sum()
    }

    /// Seconds covered by all direct children.
    pub fn covered(&self) -> f64 {
        self.children.iter().map(|(_, d)| d).sum()
    }
}

/// Every recorded root span named `name`, with its children.
pub fn ops(name: &str) -> Vec<Op> {
    REC.with(|r| {
        let r = r.borrow();
        let mut out: Vec<(usize, Op)> = Vec::new();
        for (i, s) in r.spans.iter().enumerate() {
            if s.parent.is_none() && s.name == name {
                let dur = (s.end_ns - s.start_ns) as f64 * 1e-9;
                out.push((i, Op { dur, children: Vec::new() }));
            }
        }
        for s in &r.spans {
            if let Some(p) = s.parent {
                if let Ok(k) = out.binary_search_by_key(&p, |(i, _)| *i) {
                    out[k].1.children.push((s.name, (s.end_ns - s.start_ns) as f64 * 1e-9));
                }
            }
        }
        out.into_iter().map(|(_, op)| op).collect()
    })
}

/// Largest median uncovered share (see [`uncovered_share`]) a traced run
/// accepts for an operation split completely into layer calls.
pub const DECOMPOSITION_TOLERANCE: f64 = 0.02;

/// Median share of an operation's time that its direct children leave
/// uncovered, over every recorded root span named `name`. For an
/// operation the benchmark splits completely into layer calls, this is the
/// error of the decomposition.
pub fn uncovered_share(name: &str) -> f64 {
    let mut shares: Vec<f64> =
        ops(name).iter().map(|o| (o.dur - o.covered()) / o.dur.max(1e-12)).collect();
    if shares.is_empty() {
        return 0.0;
    }
    shares.sort_by(f64::total_cmp);
    shares[shares.len() / 2]
}

/// Number of spans named `name` under root spans named `root`.
pub fn child_count(root: &str, name: &str) -> usize {
    ops(root).iter().map(|o| o.children.iter().filter(|(n, _)| *n == name).count()).sum()
}

/// Number of spans recorded.
pub fn count() -> usize {
    REC.with(|r| r.borrow().spans.len())
}

/// Write every span as a JSON array to `path`.
pub fn write_json(path: &std::path::Path) -> std::io::Result<()> {
    let text = REC.with(|r| {
        let r = r.borrow();
        let rows: Vec<String> = r
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.req
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    });
    std::fs::write(path, text)
}

//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library's public functions; nothing inside the library is instrumented.
//! A span's *self time* is its duration minus the time its child spans
//! cover. Every span carries the id of the op that caused it (0 for set-up).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Root span wrapping one timed op.
pub const OP: &str = "op";
/// Root span wrapping one set-up repetition.
pub const SETUP: &str = "setup";

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Records spans when on; every method is a pass-through when off, so the
/// untraced path runs the identical calls.
pub struct Tracer {
    on: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), state: RefCell::new(State::default()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with op `op`.
    pub fn set_op(&self, op: u64) {
        self.state.borrow_mut().op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = {
            let mut s = self.state.borrow_mut();
            let id = s.spans.len();
            let (parent, op) = (s.open.last().copied(), s.op);
            s.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, op });
            s.open.push(id);
            id
        };
        let out = f();
        let end = self.now_ns();
        let mut s = self.state.borrow_mut();
        s.open.pop();
        s.spans[id].end_ns = end;
        out
    }

    /// Share of root time spent in the self time of each span name, per
    /// root kind: `(op shares, setup shares)`. Op shares cover the timed ops
    /// (op id 1 and up); spans outside any root are not shared out.
    pub fn shares(&self) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
        let s = self.state.borrow();
        let spans = &s.spans;
        let dur: Vec<u64> = spans.iter().map(|sp| sp.end_ns.saturating_sub(sp.start_ns)).collect();
        let mut self_ns = dur.clone();
        let mut root = vec![0usize; spans.len()];
        for (i, sp) in spans.iter().enumerate() {
            // Parents always precede their children in the vector.
            match sp.parent {
                Some(p) => {
                    self_ns[p] = self_ns[p].saturating_sub(dur[i]);
                    root[i] = root[p];
                }
                None => root[i] = i,
            }
        }
        let timed_op = |sp: &Span| sp.name == OP && sp.op >= 1;
        let mut totals = [0u64; 2];
        let mut sums: [BTreeMap<&'static str, u64>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for (i, sp) in spans.iter().enumerate() {
            let r = &spans[root[i]];
            let kind = if timed_op(r) {
                0
            } else if r.name == SETUP {
                1
            } else {
                continue;
            };
            if root[i] == i {
                totals[kind] += dur[i];
            } else {
                *sums[kind].entry(sp.name).or_default() += self_ns[i];
            }
        }
        let share = |sums: &BTreeMap<&'static str, u64>, total: u64| {
            sums.iter()
                .map(|(&k, &v)| (k, if total == 0 { 0.0 } else { v as f64 / total as f64 }))
                .collect()
        };
        let [ops, setup] = sums;
        (share(&ops, totals[0]), share(&setup, totals[1]))
    }

    /// Writes every span as one JSON line: id, name, start, end, parent, op.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, sp) in self.state.borrow().spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_untimed_roots() {
        let t = Tracer::new(true);
        t.set_op(1);
        t.span(OP, || {
            t.span("outer", || {
                t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(4)))
            })
        });
        t.span("isolated", || ());
        let (ops, setup) = t.shares();
        assert!(setup.is_empty());
        assert!(!ops.contains_key("isolated"));
        assert!(ops["inner"] > 0.9, "{ops:?}");
        assert!(ops["outer"] < 0.1, "{ops:?}");
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(OP, || 7), 7);
        let (ops, setup) = t.shares();
        assert!(ops.is_empty() && setup.is_empty());
    }
}

//! The harness-owned span recorder.
//!
//! Spans are recorded only here, around calls into the library's public
//! functions — no span or counter lives inside a library crate. They are
//! kept in memory and written out once, at exit. A layer's **self time**
//! is its span's duration minus the part of that interval its child
//! spans cover.

use std::time::Instant;

/// One recorded interval. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times every scope it is handed; keeps a [`Span`] for each only when
/// tracing is on, so the untraced run pays two clock reads per call site
/// and nothing else.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    /// Start repetition `rep`, recording spans iff `traced`.
    pub fn begin_rep(&mut self, rep: u32, traced: bool) {
        assert!(self.stack.is_empty(), "repetition began inside a span");
        self.rep = rep;
        self.enabled = traced;
    }

    /// Run `f` as a child of the current scope; returns its value and its
    /// elapsed seconds.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = idx {
            self.spans[i].end_ns = (end - self.origin).as_nanos() as u64;
            self.stack.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in span order: duration minus the union of
/// its direct children's intervals (clipped to the span, so overlapping
/// or overhanging children are never double-counted).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 40, Some(0)),  // child a
            span(30, 60, Some(0)),  // child b overlaps a by 10
            span(90, 120, Some(0)), // child c overhangs the root by 20
            span(15, 25, Some(1)),  // grandchild: only a's self time sees it
            span(50, 50, Some(0)),  // empty child
        ];
        let st = self_times_ns(&spans);
        // root: 100 − |[10,60) ∪ [90,100)| = 100 − 60
        assert_eq!(st[0], 40);
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 30);
        assert_eq!(st[4], 10);
        assert_eq!(st[5], 0);
    }

    #[test]
    fn recorder_nests_scopes_and_is_silent_when_off() {
        let mut rec = Recorder::new();
        rec.begin_rep(0, false);
        let (v, secs) = rec.scope("off", |r| r.scope("inner", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty(), "untraced repetitions keep no spans");

        rec.begin_rep(3, true);
        rec.scope("outer", |r| {
            r.scope("a", |_| ());
            r.scope("b", |r| r.scope("b1", |_| ()));
        });
        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("b1", Some(2))
            ]
        );
        assert!(rec.spans().iter().all(|s| s.rep == 3));
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let st = self_times_ns(rec.spans());
        assert!(st[0] <= rec.spans()[0].duration_ns());
    }
}

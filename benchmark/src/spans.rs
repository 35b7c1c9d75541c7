//! Spans around the benchmark's calls into each layer.
//!
//! The recorder lives in the benchmark, not in the simulator: a span
//! brackets one public call (`nocl.launch`, `core.run`, …) from outside.
//! Spans are kept in memory and written out once, when the run ends. A
//! recorder that is off records nothing and costs one branch per call, so
//! the same workload code serves the untraced and the traced run.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` is the span that was open when this one
/// started; `cell` indexes [`Spans::cells`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub cell: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Amount of work the call did, where a rate is wanted: bytes for
    /// host copies and exports, trace events for a sink run, else 0.
    pub work: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Cell labels; index 0 is "outside any cell".
    pub cells: Vec<String>,
    cell: usize,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cells: vec![String::new()],
            cell: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Label the spans recorded from now on (until the next call) with a
    /// workload cell; `None` ends the cell.
    pub fn set_cell(&mut self, label: Option<&str>) {
        if !self.on {
            return;
        }
        self.cell = match label {
            None => 0,
            Some(l) => self.cells.iter().position(|c| c == l).unwrap_or_else(|| {
                self.cells.push(l.to_string());
                self.cells.len() - 1
            }),
        };
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.span_work(name, |sp| (f(sp), 0))
    }

    /// [`Self::span`] for a call whose amount of work (second element of
    /// `f`'s result) is only known once it returns.
    pub fn span_work<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> (T, u64),
    ) -> T {
        if !self.on {
            return f(self).0;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { parent, name, cell: self.cell, start_ns: 0, end_ns: 0, work: 0 });
        self.open.push(id);
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let (out, work) = f(self);
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id].work = work;
        self.open.pop();
        out
    }

    /// Self time of every span, in seconds: its duration minus the
    /// durations of its direct children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// For every span, which of the spans `roots` it is or lies under
    /// (as an index into `roots`), if any.
    pub fn root_of(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut of: Vec<Option<usize>> = Vec::with_capacity(self.spans.len());
        for (id, s) in self.spans.iter().enumerate() {
            let own = roots.iter().position(|&r| r == id);
            // A parent always has a smaller id than its children.
            of.push(own.or_else(|| s.parent.and_then(|p| of[p])));
        }
        of
    }

    /// Seconds of the spans that satisfy `pick`, summed per root.
    pub fn secs_per_root(&self, roots: &[usize], pick: impl Fn(&Span) -> bool) -> Vec<f64> {
        let mut sums = vec![0.0; roots.len()];
        for (s, root) in self.spans.iter().zip(self.root_of(roots)) {
            if let Some(r) = root.filter(|_| pick(s)) {
                sums[r] += s.secs();
            }
        }
        sums
    }

    /// One JSON object per span: `{id, parent, name, workload, cell,
    /// start_ns, end_ns, work}`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{workload}\",\
                 \"cell\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.name, self.cells[s.cell], s.start_ns, s.end_ns, s.work
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(parent: Option<usize>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { parent, name, cell: 0, start_ns, end_ns, work: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut sp = Spans::new(true);
        sp.spans = vec![
            fixed(None, "rep", 0, 1_000),
            fixed(Some(0), "cell", 100, 900),
            fixed(Some(1), "core.run", 200, 700),
            fixed(Some(1), "nocl.read", 700, 800),
        ];
        let own = sp.self_times();
        let ns: Vec<u64> = own.iter().map(|s| (s * 1e9).round() as u64).collect();
        assert_eq!(ns, vec![200, 200, 500, 100]);
        // Self times under a span add back up to that span.
        assert!((own.iter().sum::<f64>() - sp.spans[0].secs()).abs() < 1e-12);
        assert_eq!(sp.root_of(&[1]), vec![None, Some(0), Some(0), Some(0)]);
        let reads = sp.secs_per_root(&[0], |s| s.name == "nocl.read");
        assert!((reads[0] - 1e-7).abs() < 1e-15);
    }

    #[test]
    fn nesting_cells_and_off_switch() {
        let mut sp = Spans::new(true);
        sp.set_cell(Some("alu/baseline"));
        let v = sp.span("outer", |sp| sp.span_work("inner", |_| (7, 64)));
        assert_eq!(v, 7);
        assert_eq!(sp.spans.len(), 2);
        assert_eq!((sp.spans[1].parent, sp.spans[1].work, sp.spans[1].cell), (Some(0), 64, 1));
        assert!(sp.spans[0].start_ns <= sp.spans[1].start_ns);
        assert!(sp.spans[1].end_ns <= sp.spans[0].end_ns);
        for line in sp.to_jsonl("w").lines() {
            let v = simt_trace::json::parse(line).expect("span line is JSON");
            assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some("w"));
            assert_eq!(v.get("cell").and_then(|c| c.as_str()), Some("alu/baseline"));
        }

        let mut off = Spans::new(false);
        off.set_cell(Some("x"));
        assert_eq!(off.span("outer", |_| 3), 3);
        assert!(off.spans.is_empty() && off.cells.len() == 1);
    }
}

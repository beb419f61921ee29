//! The traced run's span recorder.
//!
//! Spans are taken in the benchmark's own code, around calls into each
//! layer's public functions, kept in memory, and written out when the
//! run ends. A span's *self time* is its duration minus the time its
//! children cover; [`Tracer::check`] proves the tree is well formed, so
//! self times can never sum past the root operation they belong to.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call, as offsets from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, `<module>.<what>`.
    pub name: &'static str,
    /// The operation this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, `None` for an operation's root.
    pub parent: Option<usize>,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span and count store for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<(&'static str, u64, f64)>,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose offsets count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            next_op: 0,
        }
    }

    /// A fresh operation id, unique within this tracer.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records a span measured by the caller and returns its index, the
    /// handle children pass as `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    /// Records a count taken at a layer boundary of operation `op`.
    pub fn count(&mut self, name: &'static str, op: u64, value: f64) {
        self.counts.push((name, op, value));
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its direct children cover,
    /// indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<Duration> {
        let mut times: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                times[p] = times[p].saturating_sub(span.duration());
            }
        }
        times
    }

    /// Checks the span tree: every child lies inside its parent and
    /// shares its operation id, siblings do not overlap, and the self
    /// times of each operation's tree sum to no more than its root.
    pub fn check(&self) -> Result<(), String> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if span.end < span.start {
                return Err(format!("span {i} `{}` ends before it starts", span.name));
            }
            let Some(p) = span.parent else { continue };
            let parent = self
                .spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} `{}` has no earlier parent {p}", span.name))?;
            if parent.op != span.op {
                return Err(format!("span {i} `{}` changes operation id", span.name));
            }
            if span.start < parent.start || span.end > parent.end {
                return Err(format!(
                    "span {i} `{}` lies outside its parent `{}`",
                    span.name, parent.name
                ));
            }
            children[p].push(i);
        }
        for (p, kids) in children.iter().enumerate() {
            let mut intervals: Vec<(Duration, Duration)> = kids
                .iter()
                .map(|&k| (self.spans[k].start, self.spans[k].end))
                .collect();
            intervals.sort();
            if intervals.windows(2).any(|w| w[1].0 < w[0].1) {
                return Err(format!(
                    "children of span {p} `{}` overlap",
                    self.spans[p].name
                ));
            }
        }
        let self_times = self.self_times();
        for (root, span) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
        {
            let mut total = Duration::ZERO;
            let mut stack = vec![root];
            while let Some(i) = stack.pop() {
                total += self_times[i];
                stack.extend(&children[i]);
            }
            if total > span.duration() {
                return Err(format!(
                    "self times under `{}` (op {}) sum past the operation",
                    span.name, span.op
                ));
            }
        }
        Ok(())
    }

    /// The spans and counts as JSON lines, one record per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let self_times = self.self_times();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos(),
                self_times[i].as_nanos()
            );
        }
        for (name, op, value) in &self.counts {
            let _ = writeln!(
                out,
                "{{\"count\": \"{name}\", \"op\": {op}, \"value\": {value}}}"
            );
        }
        out
    }
}

/// Optional stage timing inside an operation: off, it only runs the
/// closures; on, it also keeps each stage's start and end.
#[derive(Debug)]
pub struct Stages {
    marks: Option<Vec<(&'static str, Instant, Instant)>>,
}

impl Stages {
    /// No timing: the end-to-end path.
    pub fn off() -> Self {
        Self { marks: None }
    }

    /// Timing every stage: the traced path.
    pub fn on() -> Self {
        Self {
            marks: Some(Vec::new()),
        }
    }

    /// Runs `f` as stage `name`.
    pub fn run<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &mut self.marks {
            None => f(),
            Some(marks) => {
                let start = Instant::now();
                let r = f();
                marks.push((name, start, Instant::now()));
                r
            }
        }
    }

    /// Total seconds of the stages called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.marks
            .iter()
            .flatten()
            .filter(|(n, _, _)| *n == name)
            .map(|&(_, start, end)| end.saturating_duration_since(start).as_secs_f64())
            .sum()
    }

    /// Moves the timed stages into `tracer` as children of `parent`.
    pub fn record_into(self, tracer: &mut Tracer, op: u64, parent: usize) {
        for (name, start, end) in self.marks.unwrap_or_default() {
            tracer.record(name, op, Some(parent), start, end);
        }
    }
}

//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around each call into a layer —
//! name, start, end and parent span — and written out as JSON once the
//! run ends. A span's self time is its duration minus the durations of
//! its children; children never overlap because the traced passes run
//! their calls one after another.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::util::{json_num, json_str};

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    /// What this trace records (e.g. `traced pass, jobs=1`).
    pub label: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(label: String) -> Tracer {
        Tracer {
            label,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            parent: self.open.last().copied(),
            start_s: self.now(),
            end_s: f64::NAN,
        };
        self.spans.push(span);
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_s = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Duration of every span minus its children's durations.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration();
            }
        }
        own
    }

    /// Total duration of the spans named `name` inside the root spans
    /// named `root` (a root is a parentless span such as `pass`).
    pub fn total(&self, root: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.root_name(*i) == root)
            .fold(0.0, |sum, (_, s)| sum + s.duration())
    }

    fn root_name(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }

    /// Summed self time per span name inside the roots named `root`.
    pub fn self_by_name(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let own = self.self_times();
        let mut by = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.root_name(i) == root {
                *by.entry(s.name).or_insert(0.0) += own[i];
            }
        }
        by
    }

    /// The trace as a JSON object: every span with its self time, plus
    /// the self-time totals per name for each root.
    pub fn to_json(&self) -> String {
        let own = self.self_times();
        let mut out = String::new();
        let _ = write!(out, "{{\"label\": {}, \"spans\": [", json_str(&self.label));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
                if i == 0 { "" } else { "," },
                json_str(s.name),
                json_num(s.start_s),
                json_num(s.end_s),
                json_num(own[i])
            );
        }
        out.push_str("\n], \"self_s_by_root\": {");
        let mut roots: Vec<&str> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name)
            .collect();
        roots.sort_unstable();
        roots.dedup();
        for (k, root) in roots.iter().enumerate() {
            let fields: Vec<String> = self
                .self_by_name(root)
                .iter()
                .map(|(n, v)| format!("{}: {}", json_str(n), json_num(*v)))
                .collect();
            let _ = write!(
                out,
                "{}{}: {{{}}}",
                if k == 0 { "" } else { ", " },
                json_str(root),
                fields.join(", ")
            );
        }
        out.push_str("}}");
        out
    }
}

//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<operation>`), start and end relative to
//! the trace's epoch, the span that caused it, the cell or request it
//! belongs to, and an optional work count (instructions for
//! interpreter and simulator spans). Spans stay in memory until the run
//! ends and are then written out as one JSON document. A span's self
//! time is its duration minus the part of it its children cover.

use rix_isa::json::Json;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    pub work: u64,
}

/// The spans of one run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Aggregates over every span of one name.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Spans of this name.
    pub count: usize,
    /// Σ self time, seconds.
    pub self_s: f64,
    /// The duration of each span, seconds, in recording order.
    pub durations: Vec<f64>,
    /// Σ work counts.
    pub work: u64,
}

impl Summary {
    /// Mean self time per span in `scale` units per second (1e3 for ms,
    /// 1e6 for µs).
    pub fn mean(&self, scale: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_s * scale / self.count as f64
        }
    }

    /// Mean duration per span (children included), in `scale` units
    /// per second.
    pub fn mean_duration(&self, scale: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.durations.iter().sum::<f64>() * scale / self.count as f64
        }
    }

    /// Self nanoseconds per unit of work.
    pub fn ns_per_work(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.self_s * 1e9 / self.work as f64
        }
    }
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: &str) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            id: id.to_string(),
            parent,
            start: now,
            end: now,
            work: 0,
        });
        self.spans.len() - 1
    }

    /// Closes `span` now.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.epoch.elapsed();
    }

    /// Closes `span` now, recording `work` units done inside it.
    pub fn close_with(&mut self, span: usize, work: u64) {
        self.close(span);
        self.spans[span].work = work;
    }

    /// Records an interval timed elsewhere (for example on a server
    /// thread).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.epoch);
        let span = Span {
            name,
            id: id.to_string(),
            parent,
            start: at(start),
            end: at(end),
            work: 0,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Each span's duration minus the union of its children's intervals
    /// (clipped to the span), in seconds.
    fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(Duration, Duration)> = kids
                    .iter()
                    .map(|&k| {
                        (
                            self.spans[k].start.max(s.start),
                            self.spans[k].end.min(s.end),
                        )
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end.saturating_sub(s.start).saturating_sub(covered)).as_secs_f64()
            })
            .collect()
    }

    /// Aggregates the spans named `name`.
    pub fn summary(&self, name: &str) -> Summary {
        let selfs = self.self_times();
        let mut out = Summary::default();
        for (s, t) in self.spans.iter().zip(selfs) {
            if s.name == name {
                out.count += 1;
                out.self_s += t;
                out.durations
                    .push(s.end.saturating_sub(s.start).as_secs_f64());
                out.work += s.work;
            }
        }
        out
    }

    /// The spans as a JSON document (times in microseconds since the
    /// trace epoch, with each span's self time).
    pub fn to_json(&self) -> String {
        let selfs = self.self_times();
        let us = |d: Duration| Json::Num(format!("{:.3}", d.as_secs_f64() * 1e6));
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(i, (s, self_s))| {
                Json::Obj(vec![
                    ("index".into(), Json::Num(i.to_string())),
                    ("name".into(), Json::Str(s.name.into())),
                    ("id".into(), Json::Str(s.id.clone())),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p.to_string())),
                    ),
                    ("start_us".into(), us(s.start)),
                    ("end_us".into(), us(s.end)),
                    ("self_us".into(), Json::Num(format!("{:.3}", self_s * 1e6))),
                    ("work".into(), Json::Num(s.work.to_string())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("perfbench-trace/1".into())),
            ("spans".into(), Json::Arr(spans)),
        ])
        .dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_children() {
        let mut t = Trace::new();
        let base = t.epoch;
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", None, "r", at(0), at(100));
        t.record("a", Some(root), "r", at(10), at(40));
        t.record("b", Some(root), "r", at(30), at(50));
        t.record("c", Some(root), "r", at(90), at(120));
        let s = t.summary("root");
        assert_eq!(s.count, 1);
        // Children cover 10..50 and 90..100: 50 ms of 100.
        assert!((s.self_s - 0.050).abs() < 1e-9, "{}", s.self_s);
        assert!((t.summary("a").self_s - 0.030).abs() < 1e-9);
    }
}

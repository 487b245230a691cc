//! In-memory span recording for the traced run.
//!
//! A span wraps one public call into a layer: its name (`layer.call`),
//! start and end, the span that caused it and the operation it belongs
//! to. Spans stay in memory and are written out once the run ends. With
//! no tracer the wrappers call straight through.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

/// Collects spans from any thread.
pub struct Tracer {
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9}}}",
                s.id, s.parent, s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Where a traced call sits: its tracer (if tracing), parent span and
/// operation id. `Copy`, so it threads through closures freely.
#[derive(Clone, Copy, Default)]
pub struct Scope<'t> {
    pub tracer: Option<&'t Tracer>,
    pub parent: u32,
    pub op: u64,
}

impl<'t> Scope<'t> {
    pub fn new(tracer: Option<&'t Tracer>) -> Self {
        Scope {
            tracer,
            parent: 0,
            op: 0,
        }
    }

    /// The same scope attributed to operation `op`.
    pub fn op(self, op: u64) -> Self {
        Scope { op, ..self }
    }

    /// Run `f` inside a span called `name`; `f` receives the scope its
    /// own calls should nest under.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Scope<'t>) -> R) -> R {
        let Some(tracer) = self.tracer else {
            return f(self);
        };
        let id = tracer.next.fetch_add(1, Ordering::Relaxed);
        let start = tracer.now();
        let out = f(Scope { parent: id, ..self });
        tracer.record(Span {
            id,
            parent: self.parent,
            op: self.op,
            name,
            start,
            end: tracer.now(),
        });
        out
    }
}

/// Total length of the union of `intervals`.
pub fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time per layer (the span name up to its first `.`): each span's
/// duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0.0, |c| {
            union_len(
                c.iter()
                    .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                    .collect(),
            )
        });
        let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
        *out.entry(layer).or_default() += (s.end - s.start - covered).max(0.0);
    }
    out
}

/// Share of `[from, to]` covered by root spans.
pub fn coverage(spans: &[Span], from: f64, to: f64) -> f64 {
    let roots = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.start.max(from), s.end.min(to)))
        .filter(|(a, b)| b > a)
        .collect();
    union_len(roots) / (to - from).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                op: 0,
                name: "sweep.run",
                start: 0.0,
                end: 10.0,
            },
            Span {
                id: 2,
                parent: 1,
                op: 0,
                name: "store.load",
                start: 2.0,
                end: 5.0,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["sweep"], 7.0);
        assert_eq!(t["store"], 3.0);
        assert_eq!(coverage(&spans, 0.0, 20.0), 0.5);
    }
}

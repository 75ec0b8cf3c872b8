//! The benchmark's own spans: recorded around calls into the workspace
//! crates' public functions, never inside them.
//!
//! A span is `(name, start, end, parent)`. Its layer is the name up to the
//! first `.` (`markov.distribution` → `markov`); `bench.*` spans are the
//! benchmark's own roots, so a root's self time is the part of a traced
//! pass no layer accounts for. Spans stay in memory and are written at the
//! end of the run as a Chrome `trace_event` document plus a self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub tid: u32,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A per-thread span recorder; recorders of several threads share an
/// epoch and are merged at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Tracer {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            tid: self.tid,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Moves every span of `other` into this recorder.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration (ms) of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_ms())
    }

    /// Self time (ms) of every span: its duration minus its children's.
    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ms();
            }
        }
        own
    }

    /// Per-span-name `(count, total ms, self ms)`, keyed by name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let own = self.self_ms();
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ms();
            e.2 += own;
        }
        out
    }

    /// Share (%) of the root spans' time that is the roots' own self time —
    /// time inside a traced pass that no layer span covers.
    pub fn unattributed_pct(&self) -> f64 {
        let own = self.self_ms();
        let (mut root_total, mut root_self) = (0.0, 0.0);
        for (s, own) in self.spans.iter().zip(own) {
            if s.parent.is_none() && s.name.starts_with("bench.") {
                root_total += s.dur_ms();
                root_self += own;
            }
        }
        if root_total > 0.0 {
            100.0 * root_self / root_total
        } else {
            0.0
        }
    }

    /// The self-time table: one row per layer, then one per span name.
    pub fn self_time_table(&self) -> String {
        let rows = self.by_name();
        let traced: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ms)
            .sum();
        let mut layers: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for (name, (count, _, own)) in &rows {
            let e = layers.entry(layer_of(name)).or_default();
            e.0 += count;
            e.1 += own;
        }
        let share = |v: f64| {
            if traced > 0.0 {
                100.0 * v / traced
            } else {
                0.0
            }
        };
        let mut out = format!("# root span time {traced:.3} ms\n");
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>7}",
            "layer", "spans", "self_ms", "share%"
        );
        for (layer, (count, own)) in &layers {
            let _ = writeln!(
                out,
                "{layer:<28} {count:>8} {own:>12.3} {:>7.2}",
                share(*own)
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12} {:>7}",
            "span", "count", "total_ms", "self_ms", "share%"
        );
        for (name, (count, total, own)) in &rows {
            let _ = writeln!(
                out,
                "{name:<28} {count:>8} {total:>12.3} {own:>12.3} {:>7.2}",
                share(*own)
            );
        }
        out
    }

    /// The spans as a Chrome `trace_event` document (complete events).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                layer_of(s.name),
                s.start_us,
                s.end_us - s.start_us,
                s.tid,
                s.parent.map_or(-1, |p| p as i64)
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes `trace-<workload>.json` and `selftime-<workload>.txt` (plus
    /// `extra`, appended to the table) under `dir`.
    pub fn write(&self, dir: &Path, workload: &str, extra: &str) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let trace = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&trace, self.chrome_trace())
            .map_err(|e| format!("{}: {e}", trace.display()))?;
        let table = dir.join(format!("selftime-{workload}.txt"));
        let text = format!("{}{extra}", self.self_time_table());
        std::fs::write(&table, text).map_err(|e| format!("{}: {e}", table.display()))?;
        Ok(table)
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), 1);
        let root = t.begin("bench.pass");
        t.time("markov.distribution", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let rows = t.by_name();
        let (_, total, own) = rows["bench.pass"];
        let child = rows["markov.distribution"].1;
        assert!((total - own - child).abs() < 1e-9);
        assert!(t.unattributed_pct() < 50.0);
        assert!(t.chrome_trace().contains("\"parent\":0"));
    }
}

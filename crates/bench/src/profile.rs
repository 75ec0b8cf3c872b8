//! The flight-recorder profiler: `gsu-bench profile --trace PATH`.
//!
//! Reads a Chrome `trace_event` document written by this workspace's own
//! collector ([`telemetry::Collector::write_chrome_trace`] or the
//! `/trace?id=` endpoint of `gsu-serve`), rebuilds the span tree from the
//! `span_id`/`parent_id` args every event carries, and renders two views:
//!
//! - **folded stacks** (`root;child;leaf N`, one line per call path, `N` =
//!   self time in µs) — the input format of every flamegraph renderer;
//! - a **self-time table** aggregated by span name, sorted hottest first.
//!
//! Self time is a span's duration minus the duration of its direct
//! children. Children fanned out to pool workers run concurrently with
//! their parent, so the subtraction saturates at zero rather than going
//! negative.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use telemetry::json;

/// One complete (`ph == "X"`) span event parsed from a trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (e.g. `markov.solve.uniformization`).
    pub name: String,
    /// Wall duration in microseconds.
    pub dur_us: u64,
    /// Span id, unique within the document.
    pub span_id: u64,
    /// Parent span id (`0` = trace root).
    pub parent_id: u64,
    /// Trace (request) id, as the 16-hex-digit string the collector wrote.
    pub trace_id: String,
}

/// Parses the events of a Chrome `trace_event` document produced by this
/// workspace's collector. Events missing the `dur`/`trace_id`/`span_id`/
/// `parent_id` fields (foreign documents) are skipped rather than erroring;
/// a document that is not JSON or has no `traceEvents` array yields none.
pub fn parse_chrome_trace(doc: &str) -> Vec<SpanEvent> {
    let doc = json::parse(doc).unwrap_or(json::Value::Null);
    let events = doc.get("traceEvents").and_then(json::Value::as_array);
    events
        .unwrap_or_default()
        .iter()
        .filter_map(|event| {
            let args = event.get("args")?;
            let id = |key| args.get(key).and_then(json::Value::as_u64);
            Some(SpanEvent {
                name: event.get("name")?.as_str()?.to_string(),
                dur_us: event.get("dur")?.as_u64()?,
                span_id: id("span_id")?,
                parent_id: id("parent_id")?,
                trace_id: args.get("trace_id")?.as_str()?.to_string(),
            })
        })
        .collect()
}

/// A span-tree profile: per-path self times plus per-name aggregates.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// `(call path, self µs)` per distinct path, lexicographic by path.
    pub paths: Vec<(String, u64)>,
    /// `(name, count, total µs, self µs)` per span name, hottest self first.
    pub by_name: Vec<(String, u64, u64, u64)>,
}

/// Builds a [`Profile`] from parsed events.
///
/// Orphans — spans whose `parent_id` is absent from the document, as happens
/// in a `/trace?id=` export where the request root has since aged out of the
/// ring — are rooted at their own name rather than dropped, so their time
/// still shows up.
pub fn build_profile(events: &[SpanEvent]) -> Profile {
    let by_id: BTreeMap<u64, &SpanEvent> = events.iter().map(|e| (e.span_id, e)).collect();
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        if e.parent_id != 0 && by_id.contains_key(&e.parent_id) {
            *child_us.entry(e.parent_id).or_insert(0) += e.dur_us;
        }
    }

    let mut paths: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for e in events {
        let self_us = e
            .dur_us
            .saturating_sub(child_us.get(&e.span_id).copied().unwrap_or(0));

        // Walk to the root; guard against cycles a corrupt document could
        // encode by bounding the walk at the document size.
        let mut stack = vec![e.name.as_str()];
        let mut cursor = e.parent_id;
        for _ in 0..events.len() {
            let Some(parent) = (cursor != 0).then(|| by_id.get(&cursor)).flatten() else {
                break;
            };
            stack.push(parent.name.as_str());
            cursor = parent.parent_id;
        }
        stack.reverse();
        *paths.entry(stack.join(";")).or_insert(0) += self_us;

        let slot = by_name.entry(e.name.as_str()).or_insert((0, 0, 0));
        slot.0 += 1;
        slot.1 += e.dur_us;
        slot.2 += self_us;
    }

    let mut by_name: Vec<(String, u64, u64, u64)> = by_name
        .into_iter()
        .map(|(name, (count, total, selfy))| (name.to_string(), count, total, selfy))
        .collect();
    by_name.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)));
    Profile {
        paths: paths.into_iter().collect(),
        by_name,
    }
}

impl Profile {
    /// Folded-stack rendering (`path;to;span N` per line) — pipe into any
    /// flamegraph renderer.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, self_us) in &self.paths {
            let _ = writeln!(out, "{path} {self_us}");
        }
        out
    }

    /// Self-time table by span name, hottest first.
    pub fn self_time_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12} {:>12}",
            "span", "count", "total_us", "self_us"
        );
        for (name, count, total_us, self_us) in &self.by_name {
            let _ = writeln!(out, "{name:<40} {count:>8} {total_us:>12} {self_us:>12}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> String {
        // Shape: request(100µs) -> eval(80µs) -> {solve(30µs), solve(20µs)};
        // plus one span from another trace and one orphan.
        let events = [
            r#"{"name":"serve.request","cat":"gsu","ph":"X","ts":0,"dur":100,"pid":1,"tid":1,"args":{"trace_id":"00000000000000aa","span_id":1,"parent_id":0}}"#,
            r#"{"name":"serve.eval","cat":"gsu","ph":"X","ts":5,"dur":80,"pid":1,"tid":1,"args":{"trace_id":"00000000000000aa","span_id":2,"parent_id":1}}"#,
            r#"{"name":"markov.solve.expm","cat":"gsu","ph":"X","ts":10,"dur":30,"pid":1,"tid":2,"args":{"trace_id":"00000000000000aa","span_id":3,"parent_id":2,"solve.method":"expm"}}"#,
            r#"{"name":"markov.solve.expm","cat":"gsu","ph":"X","ts":50,"dur":20,"pid":1,"tid":3,"args":{"trace_id":"00000000000000aa","span_id":4,"parent_id":2}}"#,
            r#"{"name":"other.trace","cat":"gsu","ph":"X","ts":0,"dur":7,"pid":1,"tid":1,"args":{"trace_id":"00000000000000bb","span_id":9,"parent_id":0}}"#,
            r#"{"name":"orphan","cat":"gsu","ph":"X","ts":0,"dur":5,"pid":1,"tid":1,"args":{"trace_id":"00000000000000aa","span_id":12,"parent_id":999}}"#,
        ];
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            events.join(",")
        )
    }

    #[test]
    fn parses_own_collector_format() {
        let events = parse_chrome_trace(&doc());
        assert_eq!(events.len(), 6);
        assert_eq!(events[0].name, "serve.request");
        assert_eq!(events[0].span_id, 1);
        assert_eq!(events[2].parent_id, 2);
        assert_eq!(events[4].trace_id, "00000000000000bb");
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let profile = build_profile(&parse_chrome_trace(&doc()));
        let folded = profile.folded();
        // request: 100 - 80 = 20; eval: 80 - (30 + 20) = 30; leaves keep all.
        assert!(folded.contains("serve.request 20\n"), "{folded}");
        assert!(folded.contains("serve.request;serve.eval 30\n"), "{folded}");
        assert!(
            folded.contains("serve.request;serve.eval;markov.solve.expm 50\n"),
            "{folded}"
        );
        // The orphan roots at itself instead of disappearing.
        assert!(folded.contains("orphan 5\n"), "{folded}");

        let table = profile.self_time_table();
        let expm_row = table
            .lines()
            .find(|l| l.starts_with("markov.solve.expm"))
            .expect("expm row");
        let cols: Vec<&str> = expm_row.split_whitespace().collect();
        assert_eq!(cols[1..], ["2", "50", "50"], "{table}");
    }

    #[test]
    fn concurrent_children_saturate_instead_of_underflowing() {
        let doc = r#"{"traceEvents":[
            {"name":"parent","ph":"X","ts":0,"dur":10,"args":{"trace_id":"0000000000000001","span_id":1,"parent_id":0}},
            {"name":"fanout","ph":"X","ts":0,"dur":9,"args":{"trace_id":"0000000000000001","span_id":2,"parent_id":1}},
            {"name":"fanout","ph":"X","ts":0,"dur":9,"args":{"trace_id":"0000000000000001","span_id":3,"parent_id":1}}]}"#;
        let profile = build_profile(&parse_chrome_trace(doc));
        assert!(
            profile.folded().contains("parent 0\n"),
            "{}",
            profile.folded()
        );
    }

    #[test]
    fn foreign_documents_yield_no_events() {
        // Events without span ids (a trace from some other tool) are skipped.
        let doc = r#"{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":3,"args":{}}]}"#;
        assert!(parse_chrome_trace(doc).is_empty());
        // So are documents that are not JSON or nest past the reader's cap.
        assert!(parse_chrome_trace(&doc[..40]).is_empty());
        let deep = format!("{{\"traceEvents\":{}{}}}", "[".repeat(100), "]".repeat(100));
        assert!(parse_chrome_trace(&deep).is_empty());
    }
}

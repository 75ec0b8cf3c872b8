//! Committed serving-SLO definitions (`results/SLO.json`).
//!
//! The paper's Y(φ) is a promise about delivered service under guarded
//! operation; `SLO.json` is the equivalent promise for the serving path
//! itself: for each endpoint, the latency threshold and the fraction of
//! requests that must meet it, plus the pinned open-loop request rate the
//! promise is made at (an SLO without its rate is meaningless — any server
//! meets any latency target at 0 rps).
//!
//! Both consumers share this module: `gsu-serve` loads the file at startup
//! to give each endpoint's sliding-window histogram its "good" bound (so
//! `/stats` can render attainment and burn rate), and `gsu-bench loadgen
//! --check` loads it to gate a measured run in CI.
//!
//! The document is read through [`telemetry::json`], like every other
//! committed JSON artifact; validation is strict about the schema tag and
//! the numeric fields so a malformed file fails the gate instead of
//! silently passing.

use std::path::Path;

use telemetry::json::{self, Value};

/// Default location of the committed SLO definitions, relative to the
/// workspace root the daemon runs from.
pub const SLO_PATH: &str = "results/SLO.json";

/// Schema tag expected at the top of the file.
pub const SLO_SCHEMA: &str = "gsu-slo-v1";

/// One endpoint's serving promise.
#[derive(Debug, Clone, PartialEq)]
pub struct SloDef {
    /// Endpoint path the promise covers (e.g. `/eval`).
    pub endpoint: String,
    /// Latency threshold in milliseconds.
    pub threshold_ms: f64,
    /// Fraction of requests that must complete within the threshold
    /// (e.g. `0.95`).
    pub target: f64,
}

/// The committed SLO document.
#[derive(Debug, Clone, PartialEq)]
pub struct SloDoc {
    /// Width of the sliding window attainment is judged over, in seconds.
    pub window_s: u64,
    /// Pinned open-loop arrival rate (requests/second) the promises are
    /// made at; `gsu-bench loadgen --check` drives this rate.
    pub rate_rps: f64,
    /// Per-endpoint promises.
    pub slos: Vec<SloDef>,
}

impl SloDoc {
    /// The promise covering `endpoint`, if any.
    pub fn for_endpoint(&self, endpoint: &str) -> Option<&SloDef> {
        self.slos.iter().find(|s| s.endpoint == endpoint)
    }
}

/// Parses an `SLO.json` document.
///
/// # Errors
///
/// A description of the first structural problem found (not JSON, wrong
/// schema tag, missing or non-numeric field, no endpoints).
pub fn parse_slo(text: &str) -> Result<SloDoc, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some(SLO_SCHEMA) {
        return Err(format!("missing schema tag {SLO_SCHEMA:?}"));
    }
    let window_s = doc.field("window_s", Value::as_f64)?;
    let rate_rps = doc.field("rate_rps", Value::as_f64)?;
    if !(window_s >= 1.0 && window_s.fract() == 0.0) {
        return Err(format!(
            "window_s must be a positive integer, got {window_s}"
        ));
    }
    if !(rate_rps > 0.0 && rate_rps.is_finite()) {
        return Err(format!("rate_rps must be positive, got {rate_rps}"));
    }

    let mut slos = Vec::new();
    for obj in doc.field("slos", Value::as_array)? {
        let endpoint = obj.field("endpoint", Value::as_str)?.to_string();
        let threshold_ms = obj.field("threshold_ms", Value::as_f64)?;
        let target = obj.field("target", Value::as_f64)?;
        if !(threshold_ms > 0.0 && threshold_ms.is_finite()) {
            return Err(format!("threshold_ms must be positive, got {threshold_ms}"));
        }
        if !(target > 0.0 && target < 1.0) {
            return Err(format!("target must be in (0, 1), got {target}"));
        }
        slos.push(SloDef {
            endpoint,
            threshold_ms,
            target,
        });
    }
    if slos.is_empty() {
        return Err("no slo entries".to_string());
    }
    Ok(SloDoc {
        window_s: window_s as u64,
        rate_rps,
        slos,
    })
}

/// Loads and parses `path`.
///
/// # Errors
///
/// Read failures and parse failures, with the path in the message.
pub fn load_slo(path: &Path) -> Result<SloDoc, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_slo(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"schema":"gsu-slo-v1","window_s":60,"rate_rps":40,
  "slos":[
    {"endpoint":"/eval","threshold_ms":250,"target":0.9},
    {"endpoint":"/metrics","threshold_ms":100,"target":0.9}
  ]}"#;

    #[test]
    fn parses_the_committed_shape() {
        // The same document spaced out the way a pretty-printer writes it.
        let pretty = GOOD.replace("\":", "\": ").replace(",\"", ", \"");
        for text in [GOOD, &pretty] {
            let doc = parse_slo(text).unwrap();
            assert_eq!(doc.window_s, 60);
            assert_eq!(doc.rate_rps, 40.0);
            assert_eq!(doc.slos.len(), 2);
            let eval = doc.for_endpoint("/eval").unwrap();
            assert_eq!(eval.threshold_ms, 250.0);
            assert_eq!(eval.target, 0.9);
            assert!(doc.for_endpoint("/nope").is_none());
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_slo("{}").is_err(), "schema tag required");
        assert!(
            parse_slo(&GOOD.replace("gsu-slo-v1", "gsu-slo-v0")).is_err(),
            "wrong schema version"
        );
        assert!(
            parse_slo(&GOOD.replace("\"target\":0.9", "\"target\":1.5")).is_err(),
            "target out of range"
        );
        assert!(
            parse_slo(&GOOD.replace("\"threshold_ms\":250", "\"threshold_ms\":-1")).is_err(),
            "negative threshold"
        );
        assert!(
            parse_slo(&GOOD.replace("\"rate_rps\":40", "\"rate_rps\":0")).is_err(),
            "zero rate"
        );
        let no_entries = r#"{"schema":"gsu-slo-v1","window_s":60,"rate_rps":40,"slos":[]}"#;
        assert!(parse_slo(no_entries).is_err(), "empty slos array");
    }
}

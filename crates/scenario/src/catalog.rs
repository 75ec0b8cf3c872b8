//! Catalog loading and golden-curve persistence.
//!
//! A catalog is a directory of `.gsu` files; each scenario's analytic Y(φ)
//! curve is committed as a golden JSON file (`results/golden/<name>.json`,
//! schema `gsu-golden-v1`). Values are serialized through `f64`'s `Display`
//! — which round-trips exactly through `str::parse` — so goldens compare at
//! solver precision, and the deterministic parallel sweep keeps them
//! thread-count invariant.

use std::path::Path;

use telemetry::json::{self, Value};

use crate::ast::ScenarioSpec;
use crate::ScenarioError;

/// A golden Y(φ) curve for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenCurve {
    /// The scenario name.
    pub scenario: String,
    /// `(φ, Y(φ))` points along the scenario's grid.
    pub points: Vec<(f64, f64)>,
}

impl GoldenCurve {
    /// Serializes the curve to its canonical JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"gsu-golden-v1\",\n");
        let scenario = json::escape(&self.scenario);
        out.push_str(&format!("  \"scenario\": \"{scenario}\",\n"));
        out.push_str("  \"points\": [\n");
        for (i, (phi, y)) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            out.push_str(&format!("    {{\"phi\": {phi}, \"y\": {y}}}{sep}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the canonical golden JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformation. The parser is
    /// strict about the schema but tolerant of whitespace.
    pub fn from_json(text: &str) -> Result<GoldenCurve, String> {
        let doc = json::parse(text)?;
        let Value::Object(members) = &doc else {
            return Err("golden is not a JSON object".to_string());
        };
        if let Some((other, _)) = members
            .iter()
            .find(|(k, _)| !matches!(k.as_str(), "schema" | "scenario" | "points"))
        {
            return Err(format!("unknown key `{other}`"));
        }
        let schema = doc.field("schema", Value::as_str)?;
        if schema != "gsu-golden-v1" {
            return Err(format!("unsupported schema `{schema}`"));
        }
        let points = doc
            .field("points", Value::as_array)?
            .iter()
            .map(|point| {
                let Value::Object(keys) = point else {
                    return Err("point is not an object".to_string());
                };
                if let Some((other, _)) = keys.iter().find(|(k, _)| k != "phi" && k != "y") {
                    return Err(format!("unknown point key `{other}`"));
                }
                Ok((
                    point.field("phi", Value::as_f64)?,
                    point.field("y", Value::as_f64)?,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(GoldenCurve {
            scenario: doc.field("scenario", Value::as_str)?.to_string(),
            points,
        })
    }
}

/// Loads every `.gsu` scenario under `dir`, sorted by file name.
///
/// Each scenario's name must match its file stem, so the catalog key is
/// unambiguous across the bench, serve, and lint surfaces.
///
/// # Errors
///
/// Returns the first I/O failure, parse failure, or name mismatch in file
/// order.
pub fn load_dir(dir: &Path) -> Result<Vec<ScenarioSpec>, ScenarioError> {
    let io_err = |e: std::io::Error| ScenarioError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    };
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(io_err)?
        .collect::<Result<Vec<_>, _>>()
        .map_err(io_err)?
        .into_iter()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == "gsu"))
        .collect();
    files.sort();

    let mut specs = Vec::with_capacity(files.len());
    for path in files {
        let file = path.display().to_string();
        let text = std::fs::read_to_string(&path).map_err(|e| ScenarioError::Io {
            path: file.clone(),
            message: e.to_string(),
        })?;
        let spec = crate::parse(&text).map_err(|error| ScenarioError::Parse {
            file: file.clone(),
            error,
        })?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        if spec.name != stem {
            return Err(ScenarioError::Invalid {
                file,
                message: format!(
                    "scenario name `{}` does not match file stem `{stem}`",
                    spec.name
                ),
            });
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// Reads a golden curve from `path`.
///
/// # Errors
///
/// Returns I/O failures and JSON malformations.
pub fn read_golden(path: &Path) -> Result<GoldenCurve, ScenarioError> {
    let file = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
        path: file.clone(),
        message: e.to_string(),
    })?;
    GoldenCurve::from_json(&text).map_err(|message| ScenarioError::Invalid { file, message })
}

/// Writes a golden curve to `path` in canonical form.
///
/// # Errors
///
/// Returns I/O failures.
pub fn write_golden(path: &Path, curve: &GoldenCurve) -> Result<(), ScenarioError> {
    std::fs::write(path, curve.to_json()).map_err(|e| ScenarioError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_json_round_trips() {
        let curve = GoldenCurve {
            scenario: "x".to_string(),
            points: vec![(0.0, 1.0), (2500.5, 1.203_450_678_9), (1e4, 0.75)],
        };
        let back = GoldenCurve::from_json(&curve.to_json()).unwrap();
        assert_eq!(curve, back);
    }

    #[test]
    fn golden_json_rejects_malformations() {
        assert!(GoldenCurve::from_json("{}").is_err());
        assert!(GoldenCurve::from_json("not json").is_err());
        let wrong_schema = r#"{"schema": "v999", "scenario": "x", "points": []}"#;
        assert!(GoldenCurve::from_json(wrong_schema).is_err());
        let trailing = r#"{"schema": "gsu-golden-v1", "scenario": "x", "points": []} extra"#;
        assert!(GoldenCurve::from_json(trailing).is_err());
    }

    #[test]
    fn golden_json_accepts_empty_points() {
        let empty = r#"{"schema": "gsu-golden-v1", "scenario": "x", "points": []}"#;
        let curve = GoldenCurve::from_json(empty).unwrap();
        assert!(curve.points.is_empty());
    }
}

//! Hand-rolled parser for the `.gsu` scenario DSL.
//!
//! The grammar is line-oriented (see `SCENARIOS.md` for the full
//! reference): `#` starts a comment, the first significant line must be
//! `scenario "<name>"`, and every other line is `key value…`. Every parse
//! failure carries the 1-based line and column of the offending token and
//! a stable error class, which the negative-case tests assert exactly.

use std::collections::HashMap;

use performability::gsu::spec::{DEFAULT_SIM_REPLICATIONS, DEFAULT_SIM_SEED};
use performability::GsuParams;

use crate::ast::{
    AgingSpec, Dist, ScenarioSpec, WaveSpec, MAX_BRANCHES, MAX_ESCORTS, MAX_STAGES, MAX_WAVES,
};

/// Stable classification of scenario parse failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The first significant line is not a `scenario "<name>"` header.
    MissingHeader,
    /// The scenario name is empty or contains invalid characters.
    BadName,
    /// A line starts with a key the grammar does not know.
    UnknownKey,
    /// The same key appears twice.
    DuplicateKey,
    /// A token that should be a number is not one.
    BadNumber,
    /// A line has too few or too many tokens for its key.
    WrongArity,
    /// A duration distribution name is not `exp`/`erlang`/`hyper`/`det`.
    UnknownDistribution,
    /// A value is outside its valid domain.
    InvalidValue,
    /// A required key never appeared.
    MissingKey,
}

/// A scenario parse failure with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Stable error class.
    pub kind: ParseErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A token with its 1-based source position.
#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    text: &'a str,
    line: usize,
    col: usize,
}

impl<'a> Tok<'a> {
    fn err(&self, kind: ParseErrorKind, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            kind,
            message: message.into(),
        }
    }

    fn number(&self) -> Result<f64, ParseError> {
        match self.text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(self.err(
                ParseErrorKind::BadNumber,
                format!("`{}` is not a finite number", self.text),
            )),
        }
    }

    fn integer(&self) -> Result<u64, ParseError> {
        self.text.parse::<u64>().map_err(|_| {
            self.err(
                ParseErrorKind::BadNumber,
                format!("`{}` is not a non-negative integer", self.text),
            )
        })
    }
}

/// Splits one physical line (already stripped of comments) into positioned
/// tokens.
fn tokenize(line: &str, line_no: usize) -> Vec<Tok<'_>> {
    let mut toks = Vec::new();
    let mut start: Option<usize> = None;
    for (i, ch) in line.char_indices() {
        if ch.is_whitespace() {
            if let Some(s) = start.take() {
                toks.push(Tok {
                    text: &line[s..i],
                    line: line_no,
                    col: s + 1,
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        toks.push(Tok {
            text: &line[s..],
            line: line_no,
            col: s + 1,
        });
    }
    toks
}

fn check_arity(key: &Tok<'_>, args: &[Tok<'_>], want: usize) -> Result<(), ParseError> {
    if args.len() != want {
        return Err(key.err(
            ParseErrorKind::WrongArity,
            format!(
                "key `{}` takes {} value{}, got {}",
                key.text,
                want,
                if want == 1 { "" } else { "s" },
                args.len()
            ),
        ));
    }
    Ok(())
}

fn positive(tok: &Tok<'_>, what: &str) -> Result<f64, ParseError> {
    let v = tok.number()?;
    if v <= 0.0 {
        return Err(tok.err(
            ParseErrorKind::InvalidValue,
            format!("{what} must be > 0, got {v}"),
        ));
    }
    Ok(v)
}

fn unit_interval(tok: &Tok<'_>, what: &str) -> Result<f64, ParseError> {
    let v = tok.number()?;
    if !(0.0..=1.0).contains(&v) {
        return Err(tok.err(
            ParseErrorKind::InvalidValue,
            format!("{what} must be within [0, 1], got {v}"),
        ));
    }
    Ok(v)
}

fn parse_dist(key: &Tok<'_>, args: &[Tok<'_>]) -> Result<Dist, ParseError> {
    let Some(head) = args.first() else {
        return Err(key.err(
            ParseErrorKind::WrongArity,
            format!("key `{}` needs a distribution", key.text),
        ));
    };
    let rest = &args[1..];
    match head.text {
        "exp" => {
            check_arity(head, rest, 1)?;
            Ok(Dist::Exp {
                rate: positive(&rest[0], "rate")?,
            })
        }
        "erlang" => {
            check_arity(head, rest, 2)?;
            let k = rest[0].integer()? as usize;
            if k == 0 || k > MAX_STAGES {
                return Err(rest[0].err(
                    ParseErrorKind::InvalidValue,
                    format!("erlang stages must be within [1, {MAX_STAGES}], got {k}"),
                ));
            }
            Ok(Dist::Erlang {
                k,
                rate: positive(&rest[1], "rate")?,
            })
        }
        "hyper" => {
            if rest.is_empty() || !rest.len().is_multiple_of(2) {
                return Err(head.err(
                    ParseErrorKind::WrongArity,
                    "hyper takes weight/rate pairs".to_string(),
                ));
            }
            if rest.len() / 2 > MAX_BRANCHES {
                return Err(head.err(
                    ParseErrorKind::InvalidValue,
                    format!("hyper supports at most {MAX_BRANCHES} branches"),
                ));
            }
            let mut branches = Vec::with_capacity(rest.len() / 2);
            for pair in rest.chunks(2) {
                branches.push((
                    unit_interval(&pair[0], "branch weight")?,
                    positive(&pair[1], "branch rate")?,
                ));
            }
            let total: f64 = branches.iter().map(|(w, _)| w).sum();
            if (total - 1.0).abs() > 1e-6 {
                return Err(head.err(
                    ParseErrorKind::InvalidValue,
                    format!("hyper branch weights must sum to 1, got {total}"),
                ));
            }
            Ok(Dist::Hyper { branches })
        }
        "det" => {
            check_arity(head, rest, 2)?;
            let mean = positive(&rest[0], "mean")?;
            let stages = rest[1].integer()? as usize;
            if stages == 0 || stages > MAX_STAGES {
                return Err(rest[1].err(
                    ParseErrorKind::InvalidValue,
                    format!("det stages must be within [1, {MAX_STAGES}], got {stages}"),
                ));
            }
            Ok(Dist::Det { mean, stages })
        }
        other => Err(head.err(
            ParseErrorKind::UnknownDistribution,
            format!("unknown distribution `{other}` (expected exp, erlang, hyper, or det)"),
        )),
    }
}

fn parse_header(toks: &[Tok<'_>]) -> Result<String, ParseError> {
    let head = toks[0];
    if head.text != "scenario" {
        return Err(head.err(
            ParseErrorKind::MissingHeader,
            "the first line must be `scenario \"<name>\"`".to_string(),
        ));
    }
    if toks.len() != 2 {
        return Err(head.err(
            ParseErrorKind::WrongArity,
            format!("key `scenario` takes 1 value, got {}", toks.len() - 1),
        ));
    }
    let name_tok = toks[1];
    let raw = name_tok.text;
    let Some(name) = raw.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
        return Err(name_tok.err(
            ParseErrorKind::BadName,
            "scenario name must be double-quoted".to_string(),
        ));
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return Err(name_tok.err(
            ParseErrorKind::BadName,
            format!("scenario name `{name}` must be non-empty [A-Za-z0-9._-]"),
        ));
    }
    Ok(name.to_string())
}

/// Parses one `.gsu` scenario document.
///
/// # Errors
///
/// Returns the first [`ParseError`] in document order, positioned at the
/// offending token.
pub fn parse(text: &str) -> Result<ScenarioSpec, ParseError> {
    let mut name: Option<String> = None;
    let mut header = Tok {
        text: "",
        line: 1,
        col: 1,
    };
    // Parsed values keyed by field, with the line/col of their key for
    // cross-field validation at the end.
    let mut numbers: HashMap<&'static str, f64> = HashMap::new();
    let mut at: Option<Dist> = None;
    let mut ckpt: Option<Dist> = None;
    let mut waves: Option<WaveSpec> = None;
    let mut aging: Option<AgingSpec> = None;
    let mut phi_grid: Option<Vec<f64>> = None;
    let mut phi_points: Option<usize> = None;
    let mut sim_seed: Option<u64> = None;
    let mut seen: HashMap<String, (usize, usize)> = HashMap::new();
    let mut grid_key = header;

    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = match raw_line.find('#') {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        };
        let toks = tokenize(line, line_no);
        let Some(&key) = toks.first() else { continue };

        if name.is_none() {
            name = Some(parse_header(&toks)?);
            header = key;
            continue;
        }
        if let Some(&(l, c)) = seen.get(key.text) {
            return Err(key.err(
                ParseErrorKind::DuplicateKey,
                format!("key `{}` already given at line {l}, column {c}", key.text),
            ));
        }
        seen.insert(key.text.to_string(), (key.line, key.col));
        let args = &toks[1..];

        match key.text {
            "scenario" => {
                return Err(key.err(
                    ParseErrorKind::DuplicateKey,
                    "only one `scenario` header is allowed".to_string(),
                ))
            }
            "theta" | "lambda" | "mu_new" => {
                check_arity(&key, args, 1)?;
                numbers.insert(leak_key(key.text), positive(&args[0], key.text)?);
            }
            "mu_old" => {
                check_arity(&key, args, 1)?;
                let v = args[0].number()?;
                if v < 0.0 {
                    return Err(args[0].err(
                        ParseErrorKind::InvalidValue,
                        format!("mu_old must be >= 0, got {v}"),
                    ));
                }
                numbers.insert("mu_old", v);
            }
            "coverage" | "p_ext" | "coverage_decay" => {
                check_arity(&key, args, 1)?;
                numbers.insert(leak_key(key.text), unit_interval(&args[0], key.text)?);
            }
            "at" => at = Some(parse_dist(&key, args)?),
            "ckpt" => ckpt = Some(parse_dist(&key, args)?),
            "escorts" => {
                check_arity(&key, args, 1)?;
                let n = args[0].integer()? as usize;
                if n == 0 || n > MAX_ESCORTS {
                    return Err(args[0].err(
                        ParseErrorKind::InvalidValue,
                        format!("escorts must be within [1, {MAX_ESCORTS}], got {n}"),
                    ));
                }
                numbers.insert("escorts", n as f64);
            }
            "waves" => {
                check_arity(&key, args, 3)?;
                let count = args[0].integer()? as usize;
                if !(2..=MAX_WAVES).contains(&count) {
                    return Err(args[0].err(
                        ParseErrorKind::InvalidValue,
                        format!("waves must be within [2, {MAX_WAVES}], got {count}"),
                    ));
                }
                let rate = positive(&args[1], "wave rate")?;
                let factor = args[2].number()?;
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(args[2].err(
                        ParseErrorKind::InvalidValue,
                        format!("wave factor must be within (0, 1], got {factor}"),
                    ));
                }
                waves = Some(WaveSpec {
                    count,
                    rate,
                    factor,
                });
            }
            "aging" => {
                if args.len() != 2 && args.len() != 4 {
                    return Err(key.err(
                        ParseErrorKind::WrongArity,
                        format!(
                            "key `aging` takes `RATE FACTOR [rejuvenate RATE]`, got {} values",
                            args.len()
                        ),
                    ));
                }
                let rate = positive(&args[0], "aging rate")?;
                let factor = args[1].number()?;
                if factor < 1.0 {
                    return Err(args[1].err(
                        ParseErrorKind::InvalidValue,
                        format!("aging factor must be >= 1, got {factor}"),
                    ));
                }
                let rejuvenation = if args.len() == 4 {
                    if args[2].text != "rejuvenate" {
                        return Err(args[2].err(
                            ParseErrorKind::UnknownKey,
                            format!("expected `rejuvenate`, got `{}`", args[2].text),
                        ));
                    }
                    Some(positive(&args[3], "rejuvenation rate")?)
                } else {
                    None
                };
                aging = Some(AgingSpec {
                    rate,
                    factor,
                    rejuvenation,
                });
            }
            "phi_grid" => {
                if args.len() < 2 {
                    return Err(key.err(
                        ParseErrorKind::WrongArity,
                        format!("phi_grid needs at least 2 points, got {}", args.len()),
                    ));
                }
                let mut grid = Vec::with_capacity(args.len());
                for tok in args {
                    let v = tok.number()?;
                    if v < 0.0 {
                        return Err(tok.err(
                            ParseErrorKind::InvalidValue,
                            format!("phi must be >= 0, got {v}"),
                        ));
                    }
                    if let Some(&last) = grid.last() {
                        if v < last {
                            return Err(tok.err(
                                ParseErrorKind::InvalidValue,
                                format!("phi_grid must be ascending, {v} after {last}"),
                            ));
                        }
                    }
                    grid.push(v);
                }
                phi_grid = Some(grid);
                grid_key = key;
            }
            "phi_points" => {
                check_arity(&key, args, 1)?;
                let n = args[0].integer()? as usize;
                if !(2..=1024).contains(&n) {
                    return Err(args[0].err(
                        ParseErrorKind::InvalidValue,
                        format!("phi_points must be within [2, 1024], got {n}"),
                    ));
                }
                phi_points = Some(n);
                grid_key = key;
            }
            "sim_reps" => {
                check_arity(&key, args, 1)?;
                let n = args[0].integer()?;
                if n == 0 {
                    return Err(args[0].err(
                        ParseErrorKind::InvalidValue,
                        "sim_reps must be > 0".to_string(),
                    ));
                }
                numbers.insert("sim_reps", n as f64);
            }
            "sim_seed" => {
                check_arity(&key, args, 1)?;
                // Kept out of the f64 table: seeds above 2^53 must survive.
                sim_seed = Some(args[0].integer()?);
            }
            other => {
                return Err(key.err(ParseErrorKind::UnknownKey, format!("unknown key `{other}`")))
            }
        }
    }

    let Some(name) = name else {
        return Err(ParseError {
            line: 1,
            col: 1,
            kind: ParseErrorKind::MissingHeader,
            message: "empty document: expected `scenario \"<name>\"`".to_string(),
        });
    };

    let missing = |key: &str| ParseError {
        line: header.line,
        col: header.col,
        kind: ParseErrorKind::MissingKey,
        message: format!("scenario `{name}` is missing required key `{key}`"),
    };
    let need = |key: &'static str| numbers.get(key).copied().ok_or_else(|| missing(key));
    let theta = need("theta")?;
    let lambda = need("lambda")?;
    let mu_new = need("mu_new")?;
    let mu_old = need("mu_old")?;
    let coverage = need("coverage")?;
    let p_ext = need("p_ext")?;
    let at = at.ok_or_else(|| missing("at"))?;
    let ckpt = ckpt.ok_or_else(|| missing("ckpt"))?;

    let phi_grid = match (phi_grid, phi_points) {
        (Some(_), Some(_)) => {
            return Err(ParseError {
                line: grid_key.line,
                col: grid_key.col,
                kind: ParseErrorKind::DuplicateKey,
                message: "give either phi_grid or phi_points, not both".to_string(),
            })
        }
        (Some(grid), None) => {
            if let Some(&last) = grid.last() {
                if last > theta {
                    return Err(ParseError {
                        line: grid_key.line,
                        col: grid_key.col,
                        kind: ParseErrorKind::InvalidValue,
                        message: format!("phi_grid reaches {last}, beyond theta = {theta}"),
                    });
                }
            }
            grid
        }
        (None, Some(n)) => (0..n).map(|i| theta * i as f64 / (n - 1) as f64).collect(),
        (None, None) => return Err(missing("phi_grid")),
    };

    let params = GsuParams {
        theta,
        lambda,
        mu_new,
        mu_old,
        coverage,
        p_ext,
        alpha: at.mean_rate(),
        beta: ckpt.mean_rate(),
    };
    if let Err(e) = params.validate() {
        return Err(ParseError {
            line: header.line,
            col: header.col,
            kind: ParseErrorKind::InvalidValue,
            message: format!("invalid parameter set: {e}"),
        });
    }

    Ok(ScenarioSpec {
        name,
        params,
        at,
        ckpt,
        escorts: numbers.get("escorts").map_or(1, |&n| n as usize),
        waves,
        coverage_decay: numbers.get("coverage_decay").copied().unwrap_or(0.0),
        aging,
        phi_grid,
        sim_replications: numbers
            .get("sim_reps")
            .map_or(DEFAULT_SIM_REPLICATIONS, |&n| n as usize),
        sim_seed: sim_seed.unwrap_or(DEFAULT_SIM_SEED),
    })
}

/// Maps a dynamic key string to the matching `&'static str` literal so the
/// numbers table can use static keys without allocation.
fn leak_key(key: &str) -> &'static str {
    match key {
        "theta" => "theta",
        "lambda" => "lambda",
        "mu_new" => "mu_new",
        "coverage" => "coverage",
        "p_ext" => "p_ext",
        "coverage_decay" => "coverage_decay",
        _ => unreachable!("leak_key called for unregistered key"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"scenario "paper-baseline"
theta 10000
lambda 1200
mu_new 1e-4
mu_old 1e-8
coverage 0.95
p_ext 0.1
at exp 6000
ckpt exp 6000
phi_grid 0 2500 5000 7500 10000
"#;

    #[test]
    fn minimal_document_parses() {
        let spec = parse(MINIMAL).unwrap();
        assert_eq!(spec.name, "paper-baseline");
        assert_eq!(spec.params, GsuParams::paper_baseline());
        assert!(spec.is_paper_shaped());
        assert_eq!(spec.phi_grid.len(), 5);
        assert_eq!(spec.escorts, 1);
        assert_eq!(spec.sim_replications, 1500);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = format!("# leading comment\n\n{MINIMAL}# trailing\n");
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn phi_points_expands_uniformly() {
        let text = MINIMAL.replace("phi_grid 0 2500 5000 7500 10000", "phi_points 5");
        let spec = parse(&text).unwrap();
        assert_eq!(spec.phi_grid, vec![0.0, 2500.0, 5000.0, 7500.0, 10_000.0]);
    }

    #[test]
    fn extended_keys_parse() {
        let text = MINIMAL.to_string()
            + "escorts 3\nwaves 3 0.002 0.5\ncoverage_decay 0.2\naging 0.001 10 rejuvenate 0.01\nsim_reps 800\nsim_seed 42\n";
        let spec = parse(&text).unwrap();
        assert_eq!(spec.escorts, 3);
        assert_eq!(
            spec.waves,
            Some(WaveSpec {
                count: 3,
                rate: 0.002,
                factor: 0.5
            })
        );
        assert_eq!(spec.coverage_decay, 0.2);
        assert_eq!(
            spec.aging,
            Some(AgingSpec {
                rate: 0.001,
                factor: 10.0,
                rejuvenation: Some(0.01)
            })
        );
        assert_eq!(spec.sim_replications, 800);
        assert_eq!(spec.sim_seed, 42);
        assert!(!spec.is_paper_shaped());
    }

    #[test]
    fn dist_variants_parse() {
        let text = MINIMAL
            .replace("at exp 6000", "at erlang 3 18000")
            .replace("ckpt exp 6000", "ckpt hyper 0.25 3000 0.75 9000");
        let spec = parse(&text).unwrap();
        assert_eq!(
            spec.at,
            Dist::Erlang {
                k: 3,
                rate: 18000.0
            }
        );
        assert!((spec.params.alpha - 6000.0).abs() < 1e-9);
        assert!(matches!(spec.ckpt, Dist::Hyper { .. }));
    }

    #[test]
    fn error_positions_are_exact() {
        // Unknown key on line 3, column 1.
        let text = "scenario \"x\"\ntheta 100\nbogus 1\n";
        let err = parse(text).unwrap_err();
        assert_eq!(
            (err.line, err.col, err.kind),
            (3, 1, ParseErrorKind::UnknownKey)
        );
        // Bad number: column of the offending token.
        let text = "scenario \"x\"\nlambda twelve\n";
        let err = parse(text).unwrap_err();
        assert_eq!(
            (err.line, err.col, err.kind),
            (2, 8, ParseErrorKind::BadNumber)
        );
    }

    #[test]
    fn missing_required_key_is_reported() {
        let text = MINIMAL.replace("mu_new 1e-4\n", "");
        let err = parse(&text).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::MissingKey);
        assert!(err.message.contains("mu_new"), "{}", err.message);
    }
}

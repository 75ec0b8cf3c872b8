//! DSL round-trip property tests and exhaustive negative cases.
//!
//! The positive half generates random valid [`ScenarioSpec`]s, serializes
//! them with [`gsu_scenario::to_dsl`], and asserts the parse is an exact
//! identity (f64 `Display` round-trips through `str::parse`, so equality is
//! bitwise). The negative half pins every [`ParseErrorKind`] to an exact
//! line, column, and message so error positions never silently drift.

use gsu_scenario::ast::{to_dsl, AgingSpec, Dist, ScenarioSpec, WaveSpec};
use gsu_scenario::parse::{parse, ParseError, ParseErrorKind};
use performability::GsuParams;
use proptest::prelude::*;

const NAME_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";

fn arb_name() -> impl Strategy<Value = String> {
    collection::vec(0usize..NAME_ALPHABET.len(), 1..16)
        .prop_map(|ix| ix.into_iter().map(|i| NAME_ALPHABET[i] as char).collect())
}

fn arb_dist() -> impl Strategy<Value = Dist> {
    (
        0usize..4,
        1usize..17,
        0.001..10_000.0f64,
        0.05..0.95f64,
        0.001..10_000.0f64,
    )
        .prop_map(|(tag, k, rate, w, rate2)| match tag {
            0 => Dist::Exp { rate },
            1 => Dist::Erlang { k, rate },
            2 => Dist::Hyper {
                branches: vec![(w, rate), (1.0 - w, rate2)],
            },
            _ => Dist::Det {
                mean: rate,
                stages: k,
            },
        })
}

fn arb_waves() -> impl Strategy<Value = Option<WaveSpec>> {
    (0usize..2, 2usize..9, 0.0001..10.0f64, 0.01..1.0f64).prop_map(|(on, count, rate, factor)| {
        (on == 1).then_some(WaveSpec {
            count,
            rate,
            factor,
        })
    })
}

fn arb_aging() -> impl Strategy<Value = Option<AgingSpec>> {
    (0usize..3, 0.0001..1.0f64, 1.0..100.0f64, 0.0001..1.0f64).prop_map(
        |(tag, rate, factor, rejuvenation)| match tag {
            0 => None,
            1 => Some(AgingSpec {
                rate,
                factor,
                rejuvenation: None,
            }),
            _ => Some(AgingSpec {
                rate,
                factor,
                rejuvenation: Some(rejuvenation),
            }),
        },
    )
}

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    let base = (
        arb_name(),
        10.0..20_000.0f64,          // theta
        0.01..5_000.0f64,           // lambda
        1e-8..1.0f64,               // mu_new
        0.0..1e-3f64,               // mu_old
        (0.0..1.0f64, 0.0..1.0f64), // coverage, p_ext
        arb_dist(),
        arb_dist(),
    );
    let extra = (
        1usize..5, // escorts
        arb_waves(),
        (0usize..2, 0.0..0.5f64), // coverage_decay gate + value
        arb_aging(),
        collection::vec(0.0..1.0f64, 2..7), // phi fractions of theta
        1usize..100_000,                    // sim_reps
        0u64..u64::MAX,                     // sim_seed (tests > 2^53 too)
    );
    (base, extra).prop_map(
        |(
            (name, theta, lambda, mu_new, mu_old, (coverage, p_ext), at, ckpt),
            (escorts, waves, (decay_on, decay), aging, fracs, sim_reps, sim_seed),
        )| {
            let mut phi_grid: Vec<f64> = fracs.into_iter().map(|f| f * theta).collect();
            phi_grid.sort_by(f64::total_cmp);
            ScenarioSpec {
                name,
                params: GsuParams {
                    theta,
                    lambda,
                    mu_new,
                    mu_old,
                    coverage,
                    p_ext,
                    alpha: at.mean_rate(),
                    beta: ckpt.mean_rate(),
                },
                at,
                ckpt,
                escorts,
                waves,
                coverage_decay: if decay_on == 1 { decay } else { 0.0 },
                aging,
                phi_grid,
                sim_replications: sim_reps,
                sim_seed,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse ∘ to_dsl is the identity on valid specs.
    #[test]
    fn dsl_round_trips_exactly(spec in arb_spec()) {
        let text = to_dsl(&spec);
        let back = parse(&text).map_err(|e| {
            TestCaseError::Fail(format!("round-trip parse failed: {e}\n{text}"))
        })?;
        prop_assert!(spec == back, "round-trip changed the spec; document:\n{}", text);
    }

    /// Serialization is canonical: to_dsl ∘ parse ∘ to_dsl = to_dsl.
    #[test]
    fn serialization_is_idempotent(spec in arb_spec()) {
        let text = to_dsl(&spec);
        let again = to_dsl(&parse(&text).unwrap());
        prop_assert_eq!(text, again);
    }

    /// Comments and extra blank lines never change the parse.
    #[test]
    fn comments_are_transparent(spec in arb_spec(), pad in 0usize..4) {
        let text = to_dsl(&spec);
        let mut noisy = String::from("# generated\n");
        for line in text.lines() {
            noisy.push_str(line);
            noisy.push_str("  # inline comment\n");
            for _ in 0..pad {
                noisy.push('\n');
            }
        }
        prop_assert_eq!(parse(&noisy).unwrap(), spec);
    }
}

// ---------------------------------------------------------------------------
// Negative cases: one exact (line, column, kind, message) pin per error
// class, so parser positions are part of the public contract.
// ---------------------------------------------------------------------------

fn err_of(text: &str) -> ParseError {
    parse(text).expect_err("document should not parse")
}

#[track_caller]
fn assert_err(text: &str, line: usize, col: usize, kind: ParseErrorKind, message: &str) {
    let err = err_of(text);
    assert_eq!(
        (err.line, err.col, err.kind),
        (line, col, kind),
        "wrong position/kind for {text:?}: got message `{}`",
        err.message
    );
    assert_eq!(err.message, message, "wrong message for {text:?}");
    // Display embeds the position in the documented format.
    assert_eq!(
        err.to_string(),
        format!("line {line}, column {col}: {message}")
    );
}

const VALID_TAIL: &str = "theta 100\nlambda 10\nmu_new 1e-4\nmu_old 0\ncoverage 0.9\n\
                          p_ext 0.1\nat exp 50\nckpt exp 50\nphi_grid 0 100\n";

#[test]
fn missing_header_is_reported_at_first_token() {
    assert_err(
        "theta 100\n",
        1,
        1,
        ParseErrorKind::MissingHeader,
        "the first line must be `scenario \"<name>\"`",
    );
    // Indented first token: column tracks the token, not the line start.
    assert_err(
        "   theta 100\n",
        1,
        4,
        ParseErrorKind::MissingHeader,
        "the first line must be `scenario \"<name>\"`",
    );
    assert_err(
        "# only comments\n\n",
        1,
        1,
        ParseErrorKind::MissingHeader,
        "empty document: expected `scenario \"<name>\"`",
    );
}

#[test]
fn bad_names_are_reported_at_the_name_token() {
    assert_err(
        "scenario x\n",
        1,
        10,
        ParseErrorKind::BadName,
        "scenario name must be double-quoted",
    );
    assert_err(
        "scenario \"b@d\"\n",
        1,
        10,
        ParseErrorKind::BadName,
        "scenario name `b@d` must be non-empty [A-Za-z0-9._-]",
    );
    assert_err(
        "scenario \"\"\n",
        1,
        10,
        ParseErrorKind::BadName,
        "scenario name `` must be non-empty [A-Za-z0-9._-]",
    );
}

#[test]
fn unknown_keys_are_reported_at_the_key() {
    assert_err(
        "scenario \"x\"\ntheta 100\n  frobnicate 3\n",
        3,
        3,
        ParseErrorKind::UnknownKey,
        "unknown key `frobnicate`",
    );
}

#[test]
fn duplicate_keys_point_back_to_the_first_occurrence() {
    assert_err(
        "scenario \"x\"\ntheta 100\ntheta 200\n",
        3,
        1,
        ParseErrorKind::DuplicateKey,
        "key `theta` already given at line 2, column 1",
    );
    assert_err(
        "scenario \"x\"\nscenario \"y\"\n",
        2,
        1,
        ParseErrorKind::DuplicateKey,
        "only one `scenario` header is allowed",
    );
    let text = format!("scenario \"x\"\n{VALID_TAIL}phi_points 5\n");
    assert_err(
        &text,
        11,
        1,
        ParseErrorKind::DuplicateKey,
        "give either phi_grid or phi_points, not both",
    );
}

#[test]
fn bad_numbers_are_reported_at_the_value_token() {
    assert_err(
        "scenario \"x\"\nlambda twelve\n",
        2,
        8,
        ParseErrorKind::BadNumber,
        "`twelve` is not a finite number",
    );
    assert_err(
        "scenario \"x\"\ntheta inf\n",
        2,
        7,
        ParseErrorKind::BadNumber,
        "`inf` is not a finite number",
    );
    assert_err(
        "scenario \"x\"\nescorts 1.5\n",
        2,
        9,
        ParseErrorKind::BadNumber,
        "`1.5` is not a non-negative integer",
    );
}

#[test]
fn wrong_arity_is_reported_at_the_key() {
    assert_err(
        "scenario \"x\"\ntheta 1 2\n",
        2,
        1,
        ParseErrorKind::WrongArity,
        "key `theta` takes 1 value, got 2",
    );
    assert_err(
        "scenario \"x\"\nat\n",
        2,
        1,
        ParseErrorKind::WrongArity,
        "key `at` needs a distribution",
    );
    assert_err(
        "scenario \"x\"\nat hyper 0.5 10 0.5\n",
        2,
        4,
        ParseErrorKind::WrongArity,
        "hyper takes weight/rate pairs",
    );
    assert_err(
        "scenario \"x\"\nphi_grid 0\n",
        2,
        1,
        ParseErrorKind::WrongArity,
        "phi_grid needs at least 2 points, got 1",
    );
    assert_err(
        "scenario \"x\"\naging 0.1\n",
        2,
        1,
        ParseErrorKind::WrongArity,
        "key `aging` takes `RATE FACTOR [rejuvenate RATE]`, got 1 values",
    );
}

#[test]
fn unknown_distributions_are_reported_at_the_distribution_token() {
    assert_err(
        "scenario \"x\"\nat gamma 3 5\n",
        2,
        4,
        ParseErrorKind::UnknownDistribution,
        "unknown distribution `gamma` (expected exp, erlang, hyper, or det)",
    );
}

#[test]
fn invalid_values_are_reported_at_the_value_token() {
    assert_err(
        "scenario \"x\"\ncoverage 1.5\n",
        2,
        10,
        ParseErrorKind::InvalidValue,
        "coverage must be within [0, 1], got 1.5",
    );
    assert_err(
        "scenario \"x\"\ntheta -5\n",
        2,
        7,
        ParseErrorKind::InvalidValue,
        "theta must be > 0, got -5",
    );
    assert_err(
        "scenario \"x\"\nescorts 9\n",
        2,
        9,
        ParseErrorKind::InvalidValue,
        "escorts must be within [1, 4], got 9",
    );
    assert_err(
        "scenario \"x\"\nwaves 3 0.1 1.5\n",
        2,
        13,
        ParseErrorKind::InvalidValue,
        "wave factor must be within (0, 1], got 1.5",
    );
    assert_err(
        "scenario \"x\"\naging 0.1 0.5\n",
        2,
        11,
        ParseErrorKind::InvalidValue,
        "aging factor must be >= 1, got 0.5",
    );
    assert_err(
        "scenario \"x\"\nphi_grid 10 5\n",
        2,
        13,
        ParseErrorKind::InvalidValue,
        "phi_grid must be ascending, 5 after 10",
    );
    assert_err(
        "scenario \"x\"\nat erlang 99 10\n",
        2,
        11,
        ParseErrorKind::InvalidValue,
        "erlang stages must be within [1, 16], got 99",
    );
    assert_err(
        "scenario \"x\"\nat hyper 0.2 10 0.2 20\n",
        2,
        4,
        ParseErrorKind::InvalidValue,
        "hyper branch weights must sum to 1, got 0.4",
    );
    // Grid beyond theta is caught at end-of-document, at the grid key.
    let text = "scenario \"x\"\ntheta 100\nlambda 10\nmu_new 1e-4\nmu_old 0\ncoverage 0.9\n\
                p_ext 0.1\nat exp 50\nckpt exp 50\nphi_grid 0 200\n";
    assert_err(
        text,
        10,
        1,
        ParseErrorKind::InvalidValue,
        "phi_grid reaches 200, beyond theta = 100",
    );
}

#[test]
fn missing_required_keys_are_reported_at_the_header() {
    let text = "scenario \"x\"\ntheta 100\n";
    assert_err(
        text,
        1,
        1,
        ParseErrorKind::MissingKey,
        "scenario `x` is missing required key `lambda`",
    );
    // Indented header: the position tracks the header token.
    let text = "  scenario \"x\"\ntheta 100\nlambda 10\nmu_new 1e-4\nmu_old 0\n\
                coverage 0.9\np_ext 0.1\nat exp 50\nckpt exp 50\n";
    assert_err(
        text,
        1,
        3,
        ParseErrorKind::MissingKey,
        "scenario `x` is missing required key `phi_grid`",
    );
}

#[test]
fn every_error_kind_is_covered() {
    // Compile-time completeness guard: adding a ParseErrorKind variant
    // without a negative-case test above must break this match.
    let all = [
        ParseErrorKind::MissingHeader,
        ParseErrorKind::BadName,
        ParseErrorKind::UnknownKey,
        ParseErrorKind::DuplicateKey,
        ParseErrorKind::BadNumber,
        ParseErrorKind::WrongArity,
        ParseErrorKind::UnknownDistribution,
        ParseErrorKind::InvalidValue,
        ParseErrorKind::MissingKey,
    ];
    for kind in all {
        match kind {
            ParseErrorKind::MissingHeader
            | ParseErrorKind::BadName
            | ParseErrorKind::UnknownKey
            | ParseErrorKind::DuplicateKey
            | ParseErrorKind::BadNumber
            | ParseErrorKind::WrongArity
            | ParseErrorKind::UnknownDistribution
            | ParseErrorKind::InvalidValue
            | ParseErrorKind::MissingKey => {}
        }
    }
}

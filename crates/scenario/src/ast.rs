//! The scenario abstract syntax: parameterized GSU families.
//!
//! A `.gsu` file parses to a [`ScenarioSpec`], the model specification the
//! analysis lowers from (defined in `performability::gsu::spec`). This
//! module adds what only the text form needs: the bounds the parser
//! enforces and the canonical printer [`to_dsl`].

pub use performability::gsu::{AgingSpec, Dist, ScenarioSpec, WaveSpec};

/// Upper bound on escorted processes — keeps the generalized state spaces
/// comfortably small for exact transient solution.
pub const MAX_ESCORTS: usize = 4;
/// Upper bound on upgrade waves.
pub const MAX_WAVES: usize = 8;
/// Upper bound on Erlang / deterministic-approximation stages.
pub const MAX_STAGES: usize = 16;
/// Upper bound on hyperexponential branches.
pub const MAX_BRANCHES: usize = 4;

fn dist_dsl(dist: &Dist, out: &mut String) {
    match dist {
        Dist::Exp { rate } => {
            out.push_str("exp ");
            out.push_str(&rate.to_string());
        }
        Dist::Erlang { k, rate } => {
            out.push_str(&format!("erlang {k} {rate}"));
        }
        Dist::Hyper { branches } => {
            out.push_str("hyper");
            for (w, r) in branches {
                out.push_str(&format!(" {w} {r}"));
            }
        }
        Dist::Det { mean, stages } => {
            out.push_str(&format!("det {mean} {stages}"));
        }
    }
}

/// Serializes a scenario to canonical DSL text; parsing the result yields
/// an identical spec (the round-trip property tests assert this).
pub fn to_dsl(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    out.push_str(&format!("scenario \"{}\"\n", spec.name));
    let p = &spec.params;
    out.push_str(&format!("theta {}\n", p.theta));
    out.push_str(&format!("lambda {}\n", p.lambda));
    out.push_str(&format!("mu_new {}\n", p.mu_new));
    out.push_str(&format!("mu_old {}\n", p.mu_old));
    out.push_str(&format!("coverage {}\n", p.coverage));
    out.push_str(&format!("p_ext {}\n", p.p_ext));
    out.push_str("at ");
    dist_dsl(&spec.at, &mut out);
    out.push('\n');
    out.push_str("ckpt ");
    dist_dsl(&spec.ckpt, &mut out);
    out.push('\n');
    if spec.escorts != 1 {
        out.push_str(&format!("escorts {}\n", spec.escorts));
    }
    if let Some(w) = &spec.waves {
        out.push_str(&format!("waves {} {} {}\n", w.count, w.rate, w.factor));
    }
    if spec.coverage_decay != 0.0 {
        out.push_str(&format!("coverage_decay {}\n", spec.coverage_decay));
    }
    if let Some(a) = &spec.aging {
        match a.rejuvenation {
            Some(r) => out.push_str(&format!("aging {} {} rejuvenate {}\n", a.rate, a.factor, r)),
            None => out.push_str(&format!("aging {} {}\n", a.rate, a.factor)),
        }
    }
    out.push_str("phi_grid");
    for phi in &spec.phi_grid {
        out.push_str(&format!(" {phi}"));
    }
    out.push('\n');
    out.push_str(&format!("sim_reps {}\n", spec.sim_replications));
    out.push_str(&format!("sim_seed {}\n", spec.sim_seed));
    out
}

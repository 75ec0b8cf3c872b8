//! The model specification every analysis lowers from.
//!
//! A [`ScenarioSpec`] embeds the paper's basic parameters ([`GsuParams`])
//! and the generalizations a scenario may add: multiple escorted
//! processes, staged upgrade waves, marking-dependent (degrading)
//! acceptance-test coverage, aging / rejuvenation of escort processes, and
//! non-exponential safeguard durations expanded through
//! [`markov::phase_type::PhaseType`]. The paper's own model is the
//! paper-shaped case — `ScenarioSpec::from(params)` — with one escort,
//! exponential safeguards at `α` and `β`, and none of the extensions.

use crate::GsuParams;

/// Monte-Carlo replications of a spec that does not name its own.
pub const DEFAULT_SIM_REPLICATIONS: usize = 1500;
/// Cross-validation base seed of a spec that does not name its own.
pub const DEFAULT_SIM_SEED: u64 = 7;

/// A duration distribution for a safeguard activity, compiled to a
/// phase-type representation for the overhead model.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Exponential with the given rate (the paper's assumption).
    Exp {
        /// Completion rate (1/hour).
        rate: f64,
    },
    /// Erlang with `k` stages of the given per-stage rate (mean `k/rate`).
    Erlang {
        /// Number of stages.
        k: usize,
        /// Per-stage rate.
        rate: f64,
    },
    /// Hyperexponential mixture of `(weight, rate)` branches.
    Hyper {
        /// `(weight, rate)` pairs; weights must sum to 1.
        branches: Vec<(f64, f64)>,
    },
    /// Deterministic duration approximated by an Erlang with the given
    /// number of stages (mean preserved, variance `mean²/stages`).
    Det {
        /// The deterministic duration being approximated.
        mean: f64,
        /// Erlang stages of the approximation.
        stages: usize,
    },
}

impl Dist {
    /// The mean duration.
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Exp { rate } => 1.0 / rate,
            Dist::Erlang { k, rate } => *k as f64 / rate,
            Dist::Hyper { branches } => branches.iter().map(|(w, r)| w / r).sum(),
            Dist::Det { mean, .. } => *mean,
        }
    }

    /// The equivalent completion rate `1/mean` (exact for exponentials).
    pub fn mean_rate(&self) -> f64 {
        match self {
            Dist::Exp { rate } => *rate,
            other => 1.0 / other.mean(),
        }
    }

    /// `true` for a plain exponential (no phase expansion needed).
    pub fn is_exponential(&self) -> bool {
        matches!(self, Dist::Exp { .. })
    }

    /// Compiles the distribution to its phase-type representation via the
    /// [`markov::phase_type::PhaseType`] constructors.
    ///
    /// # Errors
    ///
    /// Propagates constructor validation failures (non-positive rates,
    /// weights not summing to one, …).
    pub fn to_phase_type(&self) -> Result<markov::phase_type::PhaseType, markov::MarkovError> {
        match self {
            Dist::Exp { rate } => markov::phase_type::PhaseType::exponential(*rate),
            Dist::Erlang { k, rate } => markov::phase_type::PhaseType::erlang(*k, *rate),
            Dist::Hyper { branches } => markov::phase_type::PhaseType::hyperexponential(branches),
            Dist::Det { mean, stages } => {
                markov::phase_type::PhaseType::deterministic_approx(*mean, *stages)
            }
        }
    }
}

/// Staged upgrade waves: the fault-manifestation rate of the upgraded
/// component drops by `factor` after each completed wave (dynamic
/// reconfiguration / reliability growth during the guarded operation).
#[derive(Debug, Clone, PartialEq)]
pub struct WaveSpec {
    /// Total number of reliability levels (`count − 1` wave completions).
    pub count: usize,
    /// Rate at which each wave completes (exponential).
    pub rate: f64,
    /// Multiplier applied to µ_new per completed wave, in `(0, 1]`.
    pub factor: f64,
}

impl WaveSpec {
    /// The effective fault-manifestation rate of the upgraded component
    /// after `completed` waves, floored at µ_old.
    pub fn mu_at(&self, completed: u32, mu_new: f64, mu_old: f64) -> f64 {
        (mu_new * self.factor.powi(completed as i32)).max(mu_old)
    }
}

/// Escort-process aging (container-aging style): an aged escort manifests
/// faults `factor` times faster; optional rejuvenation clears the aged
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingSpec {
    /// Rate of becoming aged.
    pub rate: f64,
    /// Fault-rate multiplier while aged, ≥ 1.
    pub factor: f64,
    /// Optional rejuvenation rate (clears the aged state).
    pub rejuvenation: Option<f64>,
}

/// One model specification: the paper's parameters plus the
/// generalizations and the evaluation/simulation settings.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (the catalog key; `[A-Za-z0-9._-]+`).
    pub name: String,
    /// The basic GSU parameters; `alpha`/`beta` are derived from the mean
    /// of [`ScenarioSpec::at`] / [`ScenarioSpec::ckpt`].
    pub params: GsuParams,
    /// Acceptance-test duration distribution.
    pub at: Dist,
    /// Checkpoint-establishment duration distribution.
    pub ckpt: Dist,
    /// Number of escorted processes (the paper's model has one: `P2`).
    pub escorts: usize,
    /// Staged upgrade waves, when more than one reliability level exists.
    pub waves: Option<WaveSpec>,
    /// Coverage lost per additional contaminated process beyond the sender
    /// (marking-dependent coverage), in `[0, 1]`.
    pub coverage_decay: f64,
    /// Escort aging/rejuvenation, when modelled.
    pub aging: Option<AgingSpec>,
    /// The φ grid of the curve (ascending, within `[0, θ]`).
    pub phi_grid: Vec<f64>,
    /// Monte-Carlo replications for cross-validation.
    pub sim_replications: usize,
    /// Base seed for cross-validation runs.
    pub sim_seed: u64,
}

impl ScenarioSpec {
    /// `true` when the scenario is exactly the paper's model shape (one
    /// escort, one wave, constant coverage, exponential safeguards, no
    /// aging) — such scenarios can be cross-validated against the dedicated
    /// MDCD simulator in addition to SAN-level simulation.
    pub fn is_paper_shaped(&self) -> bool {
        self.escorts == 1
            && self.waves.is_none()
            && self.coverage_decay == 0.0
            && self.aging.is_none()
            && self.at.is_exponential()
            && self.ckpt.is_exponential()
    }
}

impl From<GsuParams> for ScenarioSpec {
    /// The paper's model shape for `params`: one escort, exponential
    /// acceptance test and checkpoint at `α` and `β`, no waves, decay or
    /// aging, and the figures' eleven-point φ grid over `[0, θ]`.
    fn from(params: GsuParams) -> Self {
        ScenarioSpec {
            name: "paper".to_string(),
            at: Dist::Exp { rate: params.alpha },
            ckpt: Dist::Exp { rate: params.beta },
            escorts: 1,
            waves: None,
            coverage_decay: 0.0,
            aging: None,
            phi_grid: (0..=10).map(|i| params.theta * i as f64 / 10.0).collect(),
            sim_replications: DEFAULT_SIM_REPLICATIONS,
            sim_seed: DEFAULT_SIM_SEED,
            params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_means() {
        assert_eq!(Dist::Exp { rate: 6000.0 }.mean_rate(), 6000.0);
        assert_eq!(Dist::Erlang { k: 3, rate: 6.0 }.mean(), 0.5);
        let h = Dist::Hyper {
            branches: vec![(0.5, 1.0), (0.5, 2.0)],
        };
        assert!((h.mean() - 0.75).abs() < 1e-12);
        assert_eq!(
            Dist::Det {
                mean: 0.25,
                stages: 8
            }
            .mean(),
            0.25
        );
    }

    #[test]
    fn wave_rate_floors_at_mu_old() {
        let w = WaveSpec {
            count: 4,
            rate: 0.1,
            factor: 0.1,
        };
        assert_eq!(w.mu_at(0, 1e-2, 1e-8), 1e-2);
        assert!((w.mu_at(2, 1e-2, 1e-8) - 1e-4).abs() < 1e-18);
        assert_eq!(w.mu_at(3, 1e-4, 1e-6), 1e-6);
    }

    #[test]
    fn params_lower_to_the_paper_shape() {
        let params = GsuParams::paper_baseline();
        let spec = ScenarioSpec::from(params);
        assert!(spec.is_paper_shaped());
        assert_eq!(spec.params, params);
        assert_eq!(spec.at.mean_rate(), params.alpha);
        assert_eq!(spec.ckpt.mean_rate(), params.beta);
        assert_eq!(spec.phi_grid.len(), 11);
        assert_eq!(spec.phi_grid[10], params.theta);
    }
}

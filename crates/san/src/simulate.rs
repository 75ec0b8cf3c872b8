//! Discrete-event simulation of SAN models.
//!
//! UltraSAN shipped a simulator next to its analytic solvers, for models too
//! large to generate and as an independent check on reward solutions. This
//! module plays that role: it executes any [`SanModel`]
//! trajectory-by-trajectory — timed activities race with exponential
//! samples, instantaneous activities resolve by priority and weight — and
//! estimates the same reward variables the analytic layer solves, without
//! ever generating the state space.
//!
//! The estimator intentionally shares **no code** with the reachability /
//! CTMC path, so agreement between the two is a meaningful end-to-end test
//! (see `estimate_instant_reward` tests and the workspace integration
//! suite). Randomness comes from the workspace's one generator,
//! [`SimRng`]; replication `i` of a seeded estimate draws from
//! `SimRng::stream(seed, i)`.

use crate::model::ActivityKind;
use crate::semantics;
use crate::{ActivityId, Marking, Result, RewardSpec, SanError, SanModel, SimRng};

/// Draws a key from non-empty `(key, weight)` pairs with probability
/// `weight / total`; the last key absorbs rounding slack.
fn pick<T: Copy>(rng: &mut SimRng, weights: &[(T, f64)], total: f64) -> T {
    let u = rng.uniform() * total;
    let mut acc = 0.0;
    for &(key, w) in weights {
        acc += w;
        if u < acc {
            return key;
        }
    }
    weights[weights.len() - 1].0
}

/// Fires one of the non-empty `enabled` activities, drawn with probability
/// `weight / total`, in one of its cases, drawn by case probability.
fn fire_random(
    model: &SanModel,
    marking: &Marking,
    enabled: &[(ActivityId, f64)],
    total: f64,
    rng: &mut SimRng,
) -> Result<Marking> {
    let act = pick(rng, enabled, total);
    let cases = semantics::case_distribution(model, act, marking)?;
    semantics::fire(model, act, pick(rng, &cases, 1.0), marking)
}

/// Execution limits for a simulated trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOptions {
    /// Hard cap on fired events per trajectory (guards against immortal
    /// models).
    pub max_events: usize,
    /// Cap on consecutive instantaneous firings (vanishing-loop guard,
    /// mirroring the analytic generator).
    pub max_vanishing_depth: usize,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            max_events: 10_000_000,
            max_vanishing_depth: 128,
        }
    }
}

/// One simulated trajectory's summary against a reward spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Marking at the end of the horizon.
    pub final_marking: Marking,
    /// Rate reward accumulated over `[0, horizon]`.
    pub accumulated_reward: f64,
    /// Rate reward value at the horizon instant.
    pub final_rate: f64,
    /// Number of timed firings.
    pub timed_events: usize,
}

/// Simulates one trajectory over `[0, horizon]`, accumulating the spec's
/// rate reward along the way.
///
/// # Errors
///
/// * [`SanError::VanishingLoop`] when instantaneous activities cycle.
/// * [`SanError::InvalidFunction`] on invalid rates/probabilities.
/// * [`SanError::StateSpaceLimit`] when `max_events` is exceeded (reusing
///   the limit error to mean "simulation budget exhausted").
pub fn simulate_trajectory(
    model: &SanModel,
    spec: &RewardSpec,
    horizon: f64,
    opts: &SimulationOptions,
    rng: &mut SimRng,
) -> Result<Trajectory> {
    let mut marking = model.initial_marking();
    let mut t = 0.0;
    let mut accumulated = 0.0;
    let mut events = 0usize;

    // Resolve any initial vanishing state.
    resolve_instantaneous(model, &mut marking, opts, rng)?;

    loop {
        let enabled = semantics::enabled_timed(model, &marking)?;
        let total_rate: f64 = enabled.iter().map(|&(_, r)| r).sum();
        let dwell = rng.exp(total_rate);
        let rate_now = spec.rate_of(&marking);

        if t + dwell >= horizon || enabled.is_empty() {
            accumulated += rate_now * (horizon - t);
            return Ok(Trajectory {
                final_rate: rate_now,
                final_marking: marking,
                accumulated_reward: accumulated,
                timed_events: events,
            });
        }
        accumulated += rate_now * dwell;
        t += dwell;
        events += 1;
        if events > opts.max_events {
            return Err(SanError::StateSpaceLimit {
                limit: opts.max_events,
            });
        }

        // The firing activity is drawn proportionally to its rate.
        marking = fire_random(model, &marking, &enabled, total_rate, rng)?;
        resolve_instantaneous(model, &mut marking, opts, rng)?;
    }
}

fn resolve_instantaneous(
    model: &SanModel,
    marking: &mut Marking,
    opts: &SimulationOptions,
    rng: &mut SimRng,
) -> Result<()> {
    for _ in 0..opts.max_vanishing_depth {
        let enabled = semantics::enabled_instantaneous(model, marking)?;
        if enabled.is_empty() {
            return Ok(());
        }
        *marking = fire_random(model, marking, &enabled, 1.0, rng)?;
    }
    // Exhausted the depth: find a name for the error.
    let name = model
        .activity_ids()
        .map(|id| model.activity(id))
        .find(|a| matches!(a.kind, ActivityKind::Instantaneous { .. }))
        .map(|a| a.name.clone())
        .unwrap_or_else(|| "<unknown>".to_string());
    Err(SanError::VanishingLoop {
        depth: opts.max_vanishing_depth,
        activity: name,
    })
}

/// Monte-Carlo estimate of an expected reward variable by simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEstimate {
    /// Sample mean.
    pub mean: f64,
    /// 95% confidence half-width (normal approximation).
    pub half_width_95: f64,
    /// Replications used.
    pub replications: usize,
}

/// Estimates the expected **instant-of-time** rate reward at `t` from
/// `replications` independent trajectories.
///
/// # Errors
///
/// Propagates trajectory failures.
pub fn estimate_instant_reward(
    model: &SanModel,
    spec: &RewardSpec,
    t: f64,
    replications: usize,
    seed: u64,
    opts: &SimulationOptions,
) -> Result<SimEstimate> {
    estimate(model, spec, t, replications, seed, opts, |tr| tr.final_rate)
}

/// Estimates the expected **accumulated** rate reward over `[0, t]`.
///
/// # Errors
///
/// Propagates trajectory failures.
pub fn estimate_accumulated_reward(
    model: &SanModel,
    spec: &RewardSpec,
    t: f64,
    replications: usize,
    seed: u64,
    opts: &SimulationOptions,
) -> Result<SimEstimate> {
    estimate(model, spec, t, replications, seed, opts, |tr| {
        tr.accumulated_reward
    })
}

fn estimate<F: Fn(&Trajectory) -> f64>(
    model: &SanModel,
    spec: &RewardSpec,
    t: f64,
    replications: usize,
    seed: u64,
    opts: &SimulationOptions,
    extract: F,
) -> Result<SimEstimate> {
    let n = replications.max(1);
    let mut sum = 0.0;
    let mut sq = 0.0;
    for i in 0..n {
        let mut rng = SimRng::stream(seed, i as u64);
        let tr = simulate_trajectory(model, spec, t, opts, &mut rng)?;
        let v = extract(&tr);
        sum += v;
        sq += v * v;
    }
    let mean = sum / n as f64;
    let var = (sq / n as f64 - mean * mean).max(0.0);
    Ok(SimEstimate {
        mean,
        half_width_95: 1.96 * (var / n as f64).sqrt(),
        replications: n,
    })
}

/// Estimates the expected **steady-state** rate reward by a single long
/// trajectory with batch means: the run is split into `batches` equal
/// windows after a warm-up of one window, and the confidence interval is
/// formed over the batch averages (the standard output analysis for
/// steady-state simulation).
///
/// # Errors
///
/// Returns [`SanError::InvalidModel`] when `batches < 2` or the horizon is
/// not positive; propagates trajectory failures.
pub fn estimate_steady_reward(
    model: &SanModel,
    spec: &RewardSpec,
    batch_length: f64,
    batches: usize,
    seed: u64,
    opts: &SimulationOptions,
) -> Result<SimEstimate> {
    if batches < 2 {
        return Err(SanError::InvalidModel {
            context: format!("batch-means needs >= 2 batches, got {batches}"),
        });
    }
    if !batch_length.is_finite() || batch_length <= 0.0 {
        return Err(SanError::InvalidModel {
            context: format!("batch length must be finite and > 0, got {batch_length}"),
        });
    }
    let mut rng = SimRng::from_seed(seed);
    let mut marking = model.initial_marking();
    resolve_instantaneous(model, &mut marking, opts, &mut rng)?;

    // One continuous trajectory; the first window is warm-up and discarded.
    let mut batch_means = Vec::with_capacity(batches);
    let mut events = 0usize;
    for b in 0..=batches {
        let mut t_in_batch = 0.0;
        let mut acc = 0.0;
        while t_in_batch < batch_length {
            let enabled = semantics::enabled_timed(model, &marking)?;
            let total_rate: f64 = enabled.iter().map(|&(_, r)| r).sum();
            let dwell = rng.exp(total_rate);
            let rate_now = spec.rate_of(&marking);
            if t_in_batch + dwell >= batch_length || enabled.is_empty() {
                acc += rate_now * (batch_length - t_in_batch);
                t_in_batch = batch_length;
            } else {
                acc += rate_now * dwell;
                t_in_batch += dwell;
                events += 1;
                if events > opts.max_events {
                    return Err(SanError::StateSpaceLimit {
                        limit: opts.max_events,
                    });
                }
                marking = fire_random(model, &marking, &enabled, total_rate, &mut rng)?;
                resolve_instantaneous(model, &mut marking, opts, &mut rng)?;
            }
        }
        if b > 0 {
            batch_means.push(acc / batch_length);
        }
    }
    let n = batch_means.len() as f64;
    let mean = batch_means.iter().sum::<f64>() / n;
    let var = batch_means
        .iter()
        .map(|m| (m - mean) * (m - mean))
        .sum::<f64>()
        / (n - 1.0);
    Ok(SimEstimate {
        mean,
        half_width_95: 1.96 * (var / n).sqrt(),
        replications: batch_means.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activity, Analyzer, Case};

    fn up_down() -> (SanModel, crate::PlaceId) {
        let mut m = SanModel::new("updown");
        let up = m.add_place("up", 1);
        m.add_activity(Activity::timed("fail", 0.5).with_input_arc(up, 1))
            .unwrap();
        m.add_activity(
            Activity::timed("repair", 1.5)
                .with_enabling(move |mk| mk.tokens(up) == 0)
                .with_output_arc(up, 1),
        )
        .unwrap();
        (m, up)
    }

    #[test]
    fn trajectory_is_deterministic_per_seed() {
        let (m, up) = up_down();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let mut a = SimRng::from_seed(3);
        let mut b = SimRng::from_seed(3);
        let ta = simulate_trajectory(&m, &spec, 10.0, &Default::default(), &mut a).unwrap();
        let tb = simulate_trajectory(&m, &spec, 10.0, &Default::default(), &mut b).unwrap();
        assert_eq!(ta, tb);
    }

    #[test]
    fn simulated_availability_matches_analytic() {
        let (m, up) = up_down();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let t = 2.0;
        let analytic = Analyzer::generate(&m, &Default::default())
            .unwrap()
            .instant_reward(&spec, t)
            .unwrap();
        let spec2 = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let est = estimate_instant_reward(&m, &spec2, t, 4000, 7, &Default::default()).unwrap();
        assert!(
            (est.mean - analytic).abs() < est.half_width_95.max(0.03),
            "simulated {} ± {} vs analytic {analytic}",
            est.mean,
            est.half_width_95
        );
    }

    #[test]
    fn simulated_accumulated_matches_analytic() {
        let (m, up) = up_down();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let t = 5.0;
        let analytic = Analyzer::generate(&m, &Default::default())
            .unwrap()
            .accumulated_reward(&spec, t)
            .unwrap();
        let spec2 = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let est =
            estimate_accumulated_reward(&m, &spec2, t, 4000, 11, &Default::default()).unwrap();
        assert!(
            (est.mean - analytic).abs() < 2.0 * est.half_width_95.max(0.02),
            "simulated {} ± {} vs analytic {analytic}",
            est.mean,
            est.half_width_95
        );
    }

    #[test]
    fn batch_means_steady_reward_matches_analytic() {
        let (m, up) = up_down();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let analytic = Analyzer::generate(&m, &Default::default())
            .unwrap()
            .steady_reward(&spec)
            .unwrap(); // 1.5/2.0 = 0.75
        let spec2 = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let est = estimate_steady_reward(&m, &spec2, 200.0, 20, 13, &Default::default()).unwrap();
        assert_eq!(est.replications, 20);
        assert!(
            (est.mean - analytic).abs() < (3.0 * est.half_width_95).max(0.02),
            "batch-means {} ± {} vs analytic {analytic}",
            est.mean,
            est.half_width_95
        );
    }

    #[test]
    fn batch_means_validates_inputs() {
        let (m, _) = up_down();
        let spec = RewardSpec::new();
        assert!(estimate_steady_reward(&m, &spec, 10.0, 1, 1, &Default::default()).is_err());
        assert!(estimate_steady_reward(&m, &spec, 0.0, 5, 1, &Default::default()).is_err());
        assert!(estimate_steady_reward(&m, &spec, f64::NAN, 5, 1, &Default::default()).is_err());
    }

    #[test]
    fn absorbing_model_stops_quietly() {
        // After absorption no activity is enabled; the trajectory coasts to
        // the horizon.
        let mut m = SanModel::new("absorbing");
        let p = m.add_place("p", 1);
        m.add_activity(Activity::timed("die", 10.0).with_input_arc(p, 1))
            .unwrap();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(p) == 0, 1.0);
        let mut rng = SimRng::from_seed(1);
        let tr = simulate_trajectory(&m, &spec, 100.0, &Default::default(), &mut rng).unwrap();
        assert_eq!(tr.final_marking.tokens(p), 0);
        assert!(tr.accumulated_reward > 90.0);
        assert_eq!(tr.timed_events, 1);
    }

    #[test]
    fn cases_split_by_probability() {
        // Branch with 0.3/0.7 cases; over many trajectories the terminal
        // markings should split accordingly.
        let mut m = SanModel::new("branch");
        let src = m.add_place("src", 1);
        let a = m.add_place("a", 0);
        let b = m.add_place("b", 0);
        m.add_activity(
            Activity::timed("go", 100.0)
                .with_input_arc(src, 1)
                .with_case(Case::with_probability(0.3).with_output_arc(a, 1))
                .with_case(Case::with_probability(0.7).with_output_arc(b, 1)),
        )
        .unwrap();
        let spec = RewardSpec::new();
        let mut hits_a = 0;
        let n = 3000;
        for seed in 0..n {
            let mut rng = SimRng::from_seed(seed);
            let tr = simulate_trajectory(&m, &spec, 1.0, &Default::default(), &mut rng).unwrap();
            if tr.final_marking.tokens(a) == 1 {
                hits_a += 1;
            }
        }
        let frac = hits_a as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "case split {frac}");
    }

    #[test]
    fn instantaneous_activities_resolve_during_simulation() {
        let mut m = SanModel::new("vanish");
        let p = m.add_place("p", 1);
        let mid = m.add_place("mid", 0);
        let done = m.add_place("done", 0);
        m.add_activity(
            Activity::timed("slow", 5.0)
                .with_input_arc(p, 1)
                .with_output_arc(mid, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("fast")
                .with_input_arc(mid, 1)
                .with_output_arc(done, 1),
        )
        .unwrap();
        let spec = RewardSpec::new();
        let mut rng = SimRng::from_seed(9);
        let tr = simulate_trajectory(&m, &spec, 50.0, &Default::default(), &mut rng).unwrap();
        assert_eq!(tr.final_marking.tokens(mid), 0);
        assert_eq!(tr.final_marking.tokens(done), 1);
    }

    #[test]
    fn vanishing_loop_detected_in_simulation() {
        let mut m = SanModel::new("loop");
        let p = m.add_place("p", 1);
        let q = m.add_place("q", 0);
        m.add_activity(
            Activity::instantaneous("pq")
                .with_input_arc(p, 1)
                .with_output_arc(q, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("qp")
                .with_input_arc(q, 1)
                .with_output_arc(p, 1),
        )
        .unwrap();
        let spec = RewardSpec::new();
        let mut rng = SimRng::from_seed(2);
        assert!(matches!(
            simulate_trajectory(&m, &spec, 1.0, &Default::default(), &mut rng),
            Err(SanError::VanishingLoop { .. })
        ));
    }

    #[test]
    fn event_budget_enforced() {
        let (m, up) = up_down();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let opts = SimulationOptions {
            max_events: 5,
            ..Default::default()
        };
        let mut rng = SimRng::from_seed(4);
        assert!(matches!(
            simulate_trajectory(&m, &spec, 1e9, &opts, &mut rng),
            Err(SanError::StateSpaceLimit { limit: 5 })
        ));
    }
}

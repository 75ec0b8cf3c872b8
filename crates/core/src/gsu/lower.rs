//! Lowering a [`ScenarioSpec`] to the three SAN reward models.
//!
//! This is the one lowering behind every analysis. The paper's models are
//! its paper-shaped case (one escort, exponential safeguards, no waves /
//! decay / aging — `ScenarioSpec::from(params)`): [`super::rmgd`],
//! [`super::rmgp`] and [`super::rmnd`] are thin entry points into it. For
//! every spec the models keep the paper's names `RMGd`, `RMGp` and `RMNd`:
//!
//! * [`build_gd`] — the guarded-operation dependability model with `n`
//!   escorted processes `P2 … P(n+1)` in a *star* topology (escorts
//!   exchange messages with the upgraded pair only, not with each other),
//!   optional upgrade waves lowering µ_new, marking-dependent AT coverage,
//!   and escort aging/rejuvenation;
//! * [`build_np`] — the normal-mode model over `n + 1` processes (same
//!   star topology; aging is not carried into normal-mode models, which
//!   start from a clean state at the mode switch, as in the paper);
//! * [`build_gp`] — the MDCD overhead model with acceptance-test and
//!   checkpoint durations expanded through their
//!   [`markov::phase_type::PhaseType`] representations. The overhead is
//!   modelled on the single representative escorted pair; with `n > 1`
//!   each escort pays the same per-pair overhead `ρ2`.

use san::{Activity, Case, Marking, PlaceId, RewardSpec, SanModel};

use crate::gsu::{Dist, GopStateSets, ScenarioSpec};
use crate::Result;

/// The places of the guarded-operation dependability model `RMGd`.
///
/// The state sets of the translated measures (paper §4.2) are expressed
/// over the `detected`/`failure` places (see [`GopStateSets`]).
#[derive(Debug, Clone)]
pub struct GdPlaces {
    /// Actual contamination of the upgraded component `P1new`.
    pub p1n_ctn: PlaceId,
    /// Actual contamination of the shadow old version `P1old`.
    pub p1o_ctn: PlaceId,
    /// Actual contamination of each escorted process (`P2ctn`, …).
    pub escort_ctn: Vec<PlaceId>,
    /// Perceived potential contamination of each escort — the paper's
    /// dirty bit (`P2DB`, …).
    pub escort_dirty: Vec<PlaceId>,
    /// Aged flag per escort (empty unless the scenario models aging).
    pub aged: Vec<PlaceId>,
    /// Completed upgrade waves (present only with a wave spec).
    pub wave: Option<PlaceId>,
    /// An error has been detected (recovery happened; normal mode follows).
    pub detected: PlaceId,
    /// System failure (absorbing).
    pub failure: PlaceId,
}

impl GopStateSets for GdPlaces {
    fn in_a1(&self, mk: &Marking) -> bool {
        mk.tokens(self.detected) == 0 && mk.tokens(self.failure) == 0
    }
    fn in_a2(&self, mk: &Marking) -> bool {
        mk.tokens(self.detected) == 0
    }
    fn in_a3(&self, mk: &Marking) -> bool {
        mk.tokens(self.detected) == 1 && mk.tokens(self.failure) == 0
    }
    fn in_a4(&self, mk: &Marking) -> bool {
        mk.tokens(self.detected) == 0 && mk.tokens(self.failure) == 1
    }
    fn detected_then_failed(&self, mk: &Marking) -> bool {
        mk.tokens(self.detected) == 1 && mk.tokens(self.failure) == 1
    }
    fn is_detected(&self, mk: &Marking) -> bool {
        mk.tokens(self.detected) == 1
    }
}

/// A built dependability model plus its place handles.
#[derive(Debug)]
pub struct Gd {
    /// The SAN.
    pub model: SanModel,
    /// Handles to the places, for reward predicates.
    pub places: GdPlaces,
}

/// Builds the guarded-operation dependability model `RMGd`. Escort `i`
/// is process `P{i+2}`, so the paper-shaped model has the paper's places
/// and activities (`P2ctn`, `P2fm`, `P2msg`, `P2msgN`).
///
/// # Errors
///
/// Propagates SAN construction failures.
pub fn build_gd(spec: &ScenarioSpec) -> Result<Gd> {
    let n = spec.escorts;
    let p = &spec.params;
    let lambda = p.lambda;
    let p_ext = p.p_ext;
    let c = p.coverage;
    let decay = spec.coverage_decay;
    let mu_new = p.mu_new;
    let mu_old = p.mu_old;
    let escort = |i: usize| i + 2;

    let mut m = SanModel::new("RMGd");
    let p1n_ctn = m.add_place("P1Nctn", 0);
    let p1o_ctn = m.add_place("P1Octn", 0);
    let escort_ctn: Vec<PlaceId> = (0..n)
        .map(|i| m.add_place(format!("P{}ctn", escort(i)), 0))
        .collect();
    let escort_dirty: Vec<PlaceId> = (0..n)
        .map(|i| m.add_place(format!("P{}DB", escort(i)), 0))
        .collect();
    let aged: Vec<PlaceId> = if spec.aging.is_some() {
        (0..n)
            .map(|i| m.add_place(format!("P{}aged", escort(i)), 0))
            .collect()
    } else {
        Vec::new()
    };
    let wave = spec.waves.as_ref().map(|_| m.add_place("wave", 0));
    let detected = m.add_place("detected", 0);
    let failure = m.add_place("failure", 0);

    let live = move |mk: &Marking| mk.tokens(failure) == 0;
    let gop = move |mk: &Marking| mk.tokens(failure) == 0 && mk.tokens(detected) == 0;
    let recovered = move |mk: &Marking| mk.tokens(failure) == 0 && mk.tokens(detected) == 1;

    // Marking-dependent AT coverage: each contaminated process *beyond the
    // sender* makes the acceptance test less likely to catch the error
    // (error symptoms spread over several states confound the check). With
    // `decay = 0` this is the constant `c` of the paper, since the sender
    // itself is always contaminated when a detection case is weighed.
    let ctn_all: Vec<PlaceId> = [p1n_ctn, p1o_ctn]
        .into_iter()
        .chain(escort_ctn.iter().copied())
        .collect();
    let c_eff = {
        let ctn_all = ctn_all.clone();
        move |mk: &Marking| {
            let extra = ctn_all
                .iter()
                .map(|&pl| mk.tokens(pl))
                .sum::<u32>()
                .saturating_sub(1);
            (c - decay * extra as f64).clamp(0.0, 1.0)
        }
    };

    // --- Canonicalizing output gates ---------------------------------------
    // Failure is absorbing; the gate canonicalizes the irrelevant
    // contamination / dirty / wave markings so each failure mode (detected
    // vs. not) collapses into a single state. The aged flags are physical
    // escort state and survive *detection* (normal mode continues to run
    // the escorts), but are cleared at the absorbing failure states.
    let og_fail = {
        let ctn_all = ctn_all.clone();
        let dirty = escort_dirty.clone();
        let aged = aged.clone();
        m.add_output_gate("fail", move |mk| {
            mk.set_tokens(failure, 1);
            for &pl in ctn_all.iter().chain(&dirty).chain(&aged) {
                mk.set_tokens(pl, 0);
            }
            if let Some(w) = wave {
                mk.set_tokens(w, 0);
            }
        })
    };
    // Successful detection: the MDCD rollback / roll-forward brings the
    // system into a validity-consistent global state (paper §2), so P1new
    // is retired and P1old and the escorts resume from validated (clean)
    // states; contamination that entered through logged messages is
    // discarded with the rolled-back state.
    let og_detect = {
        let ctn_all = ctn_all.clone();
        let dirty = escort_dirty.clone();
        m.add_output_gate("detected", move |mk| {
            mk.set_tokens(detected, 1);
            for &pl in ctn_all.iter().chain(&dirty) {
                mk.set_tokens(pl, 0);
            }
            if let Some(w) = wave {
                mk.set_tokens(w, 0);
            }
        })
    };
    // A clean external message of P1new passes its AT: confidence in the
    // whole P1new message lineage is restored, every escort dirty bit
    // resets (`P1Nok_ext` of the paper).
    let og_p1n_pass = {
        let dirty = escort_dirty.clone();
        m.add_output_gate("p1n_ok_ext", move |mk| {
            for &d in &dirty {
                mk.set_tokens(d, 0);
            }
        })
    };

    // --- Fault manifestations ----------------------------------------------
    // The upgraded component: with waves, each completed wave multiplies
    // µ_new by the wave factor (floored at µ_old).
    let p1n_fm = match &spec.waves {
        Some(w) => {
            let w = w.clone();
            let Some(wave_pl) = wave else {
                unreachable!("wave place exists with a wave spec")
            };
            Activity::timed_fn("P1Nfm", move |mk| {
                w.mu_at(mk.tokens(wave_pl), mu_new, mu_old)
            })
        }
        None => Activity::timed("P1Nfm", mu_new),
    };
    m.add_activity(
        p1n_fm
            .with_enabling(move |mk| gop(mk) && mk.tokens(p1n_ctn) == 0)
            .with_output_arc(p1n_ctn, 1),
    )?;
    // The shadow old version executes throughout; its (rare) faults matter
    // after recovery.
    m.add_activity(
        Activity::timed("P1Ofm", mu_old)
            .with_enabling(move |mk| live(mk) && mk.tokens(p1o_ctn) == 0)
            .with_output_arc(p1o_ctn, 1),
    )?;
    if let Some(w) = &spec.waves {
        let Some(wave_pl) = wave else {
            unreachable!("wave place exists with a wave spec")
        };
        let last = (w.count - 1) as u32;
        m.add_activity(
            Activity::timed("WaveAdv", w.rate)
                .with_enabling(move |mk| gop(mk) && mk.tokens(wave_pl) < last)
                .with_output_arc(wave_pl, 1),
        )?;
    }
    for i in 0..n {
        let k = escort(i);
        let e_ctn = escort_ctn[i];
        let e_fm = match &spec.aging {
            Some(a) => {
                let aged_pl = aged[i];
                let factor = a.factor;
                Activity::timed_fn(format!("P{k}fm"), move |mk| {
                    if mk.tokens(aged_pl) == 1 {
                        mu_old * factor
                    } else {
                        mu_old
                    }
                })
            }
            None => Activity::timed(format!("P{k}fm"), mu_old),
        };
        m.add_activity(
            e_fm.with_enabling(move |mk| live(mk) && mk.tokens(e_ctn) == 0)
                .with_output_arc(e_ctn, 1),
        )?;
        if let Some(a) = &spec.aging {
            let aged_pl = aged[i];
            m.add_activity(
                Activity::timed(format!("P{k}age"), a.rate)
                    .with_enabling(move |mk| live(mk) && mk.tokens(aged_pl) == 0)
                    .with_output_arc(aged_pl, 1),
            )?;
            if let Some(r) = a.rejuvenation {
                let og = m.add_output_gate(format!("p{k}_rejuvenate"), move |mk| {
                    mk.set_tokens(aged_pl, 0)
                });
                m.add_activity(
                    Activity::timed(format!("P{k}rejuv"), r)
                        .with_enabling(move |mk| live(mk) && mk.tokens(aged_pl) == 1)
                        .with_output_gate(og),
                )?;
            }
        }
    }

    // --- P1new message sending under G-OP ----------------------------------
    // P1new is permanently considered potentially contaminated, so every
    // external message undergoes an AT. An internal message goes to each
    // escort with equal probability (star topology) and makes it
    // potentially contaminated (checkpoint + dirty bit), actually
    // contaminated iff the sender was.
    let mut p1n_msg = Activity::timed("P1Nmsg", lambda)
        .with_enabling(gop)
        .with_case(
            Case::with_probability_fn({
                let ce = c_eff.clone();
                move |mk| {
                    if mk.tokens(p1n_ctn) == 1 {
                        p_ext * ce(mk)
                    } else {
                        0.0
                    }
                }
            })
            .with_output_gate(og_detect),
        )
        .with_case(
            Case::with_probability_fn({
                let ce = c_eff.clone();
                move |mk| {
                    if mk.tokens(p1n_ctn) == 1 {
                        p_ext * (1.0 - ce(mk))
                    } else {
                        0.0
                    }
                }
            })
            .with_output_gate(og_fail),
        )
        .with_case(
            Case::with_probability_fn(move |mk| if mk.tokens(p1n_ctn) == 0 { p_ext } else { 0.0 })
                .with_output_gate(og_p1n_pass),
        );
    for i in 0..n {
        let e_ctn = escort_ctn[i];
        let e_db = escort_dirty[i];
        let og = m.add_output_gate(format!("p1n_internal_{}", escort(i)), move |mk| {
            if mk.tokens(p1n_ctn) == 1 {
                mk.set_tokens(e_ctn, 1);
            }
            mk.set_tokens(e_db, 1);
        });
        p1n_msg = p1n_msg
            .with_case(Case::with_probability((1.0 - p_ext) / n as f64).with_output_gate(og));
    }
    m.add_activity(p1n_msg)?;

    // --- Escort message sending under G-OP ----------------------------------
    // AT-based validation is applied to an escort's external messages only
    // while its dirty bit is set (the MDCD low-overhead policy). A
    // contaminated escort that is *believed* clean therefore fails the
    // system on its next external message. Its internal messages are
    // consumed by both P1new and the shadow P1old, contaminating them iff
    // the escort is contaminated. Enabled only when some state can change.
    for i in 0..n {
        let k = escort(i);
        let e_ctn = escort_ctn[i];
        let e_db = escort_dirty[i];
        let og_pass = m.add_output_gate(format!("p{k}_ok_ext"), move |mk| mk.set_tokens(e_db, 0));
        let og_internal = m.add_output_gate(format!("p{k}_internal_gop"), move |mk| {
            if mk.tokens(e_ctn) == 1 {
                mk.set_tokens(p1n_ctn, 1);
                mk.set_tokens(p1o_ctn, 1);
            }
        });
        m.add_activity(
            Activity::timed(format!("P{k}msg"), lambda)
                .with_enabling(move |mk| gop(mk) && (mk.tokens(e_ctn) == 1 || mk.tokens(e_db) == 1))
                .with_case(
                    // Dirty & erroneous: the AT detects with coverage c.
                    Case::with_probability_fn({
                        let ce = c_eff.clone();
                        move |mk| {
                            if mk.tokens(e_db) == 1 && mk.tokens(e_ctn) == 1 {
                                p_ext * ce(mk)
                            } else {
                                0.0
                            }
                        }
                    })
                    .with_output_gate(og_detect),
                )
                .with_case(
                    // Dirty & erroneous: AT coverage miss.
                    Case::with_probability_fn({
                        let ce = c_eff.clone();
                        move |mk| {
                            if mk.tokens(e_db) == 1 && mk.tokens(e_ctn) == 1 {
                                p_ext * (1.0 - ce(mk))
                            } else {
                                0.0
                            }
                        }
                    })
                    .with_output_gate(og_fail),
                )
                .with_case(
                    // Dirty & actually clean: the AT passes, dirty bit reset.
                    Case::with_probability_fn(move |mk| {
                        if mk.tokens(e_db) == 1 && mk.tokens(e_ctn) == 0 {
                            p_ext
                        } else {
                            0.0
                        }
                    })
                    .with_output_gate(og_pass),
                )
                .with_case(
                    // Believed clean but actually contaminated: no AT, the
                    // erroneous external message reaches the external world.
                    Case::with_probability_fn(move |mk| {
                        if mk.tokens(e_db) == 0 && mk.tokens(e_ctn) == 1 {
                            p_ext
                        } else {
                            0.0
                        }
                    })
                    .with_output_gate(og_fail),
                )
                .with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og_internal)),
        )?;
    }

    // --- Normal mode after recovery -----------------------------------------
    // P1old serves the mission alongside the escorts; no safeguards run: a
    // contaminated process's external message fails the system, internal
    // messages propagate contamination.
    let mut p1o_msg = Activity::timed("P1Omsg", lambda)
        .with_enabling(move |mk| recovered(mk) && mk.tokens(p1o_ctn) == 1)
        .with_case(Case::with_probability(p_ext).with_output_gate(og_fail));
    for (i, &e_ctn) in escort_ctn.iter().enumerate() {
        let og = m.add_output_gate(format!("p1o_internal_norm_{}", escort(i)), move |mk| {
            mk.set_tokens(e_ctn, 1)
        });
        p1o_msg = p1o_msg
            .with_case(Case::with_probability((1.0 - p_ext) / n as f64).with_output_gate(og));
    }
    m.add_activity(p1o_msg)?;
    let og_e_norm = m.add_output_gate("internal_norm", move |mk| mk.set_tokens(p1o_ctn, 1));
    for (i, &e_ctn) in escort_ctn.iter().enumerate() {
        m.add_activity(
            Activity::timed(format!("P{}msgN", escort(i)), lambda)
                .with_enabling(move |mk| recovered(mk) && mk.tokens(e_ctn) == 1)
                .with_case(Case::with_probability(p_ext).with_output_gate(og_fail))
                .with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og_e_norm)),
        )?;
    }

    Ok(Gd {
        model: m,
        places: GdPlaces {
            p1n_ctn,
            p1o_ctn,
            escort_ctn,
            escort_dirty,
            aged,
            wave,
            detected,
            failure,
        },
    })
}

/// The places of the normal-mode model `RMNd`.
#[derive(Debug, Clone)]
pub struct NpPlaces {
    /// Contamination per process; index 0 is the first (µ_first) component.
    pub ctn: Vec<PlaceId>,
    /// System failure (absorbing).
    pub failure: PlaceId,
}

/// A built normal-mode model plus its place handles.
#[derive(Debug)]
pub struct Np {
    /// The SAN.
    pub model: SanModel,
    /// Handles to the places, for reward predicates.
    pub places: NpPlaces,
}

/// Builds the normal-mode model `RMNd` over `escorts + 1` processes
/// `P1 … P(n+1)`: the first component manifests faults at `mu_first`,
/// every escort at µ_old; contaminated internal messages spread along the
/// star topology and contaminated external messages fail the system (no
/// safeguards). Messages from clean processes change no state and are
/// therefore not modelled.
///
/// # Errors
///
/// Propagates SAN construction failures.
pub fn build_np(spec: &ScenarioSpec, mu_first: f64) -> Result<Np> {
    let n = spec.escorts;
    let p = &spec.params;
    let lambda = p.lambda;
    let p_ext = p.p_ext;
    let mu_old = p.mu_old;

    let mut m = SanModel::new("RMNd");
    let ctn: Vec<PlaceId> = (0..=n)
        .map(|i| m.add_place(format!("P{}ctn", i + 1), 0))
        .collect();
    let failure = m.add_place("failure", 0);
    let live = move |mk: &Marking| mk.tokens(failure) == 0;

    // Failure is absorbing; contamination no longer matters, so the gate
    // canonicalizes it away and all failure paths merge into one state.
    let og_fail = {
        let ctn = ctn.clone();
        m.add_output_gate("fail", move |mk| {
            mk.set_tokens(failure, 1);
            for &pl in &ctn {
                mk.set_tokens(pl, 0);
            }
        })
    };

    // All fault manifestations first, then all message activities: the
    // paper's activity order, which fixes the state numbering and so keeps
    // the paper-shaped solves bit-identical to the committed figures.
    for (i, &ci) in ctn.iter().enumerate() {
        let rate = if i == 0 { mu_first } else { mu_old };
        m.add_activity(
            Activity::timed(format!("P{}fm", i + 1), rate)
                .with_enabling(move |mk| live(mk) && mk.tokens(ci) == 0)
                .with_output_arc(ci, 1),
        )?;
    }
    for (i, &ci) in ctn.iter().enumerate() {
        let mut msg = Activity::timed(format!("P{}msg", i + 1), lambda)
            .with_enabling(move |mk| live(mk) && mk.tokens(ci) == 1)
            .with_case(Case::with_probability(p_ext).with_output_gate(og_fail));
        if i == 0 {
            for (j, &cj) in ctn.iter().enumerate().skip(1) {
                let og =
                    m.add_output_gate(format!("p1_to_p{}", j + 1), move |mk| mk.set_tokens(cj, 1));
                msg = msg.with_case(
                    Case::with_probability((1.0 - p_ext) / n as f64).with_output_gate(og),
                );
            }
        } else {
            let c0 = ctn[0];
            let og = m.add_output_gate(format!("p{}_to_p1", i + 1), move |mk| mk.set_tokens(c0, 1));
            msg = msg.with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og));
        }
        m.add_activity(msg)?;
    }

    Ok(Np {
        model: m,
        places: NpPlaces { ctn, failure },
    })
}

/// The places of the overhead model `RMGp` (the paper's Figure 7 layout).
#[derive(Debug, Clone, Copy)]
pub struct GpPlaces {
    /// `P1new` ready to make forward progress.
    pub p1n_ready: PlaceId,
    /// `P1new` blocked on an AT of its own external message.
    pub p1n_ext: PlaceId,
    /// `P2` blocked establishing a checkpoint for a `P1new` internal message.
    pub p1n_int: PlaceId,
    /// `P2` ready to make forward progress.
    pub p2_ready: PlaceId,
    /// `P2` blocked on an AT of its own external message.
    pub p2_ext: PlaceId,
    /// `P1old` blocked establishing a checkpoint for a `P2` internal message.
    pub p2_int: PlaceId,
    /// `P1old` ready.
    pub p1o_ready: PlaceId,
    /// `P2`'s dirty bit.
    pub p2_db: PlaceId,
    /// `P1old`'s dirty bit.
    pub p1o_db: PlaceId,
}

/// A built overhead model plus its place handles.
#[derive(Debug)]
pub struct Gp {
    /// The SAN.
    pub model: SanModel,
    /// Handles to the places, for reward predicates.
    pub places: GpPlaces,
}

/// Adds a safeguard activity with a general phase-type duration.
///
/// The activity waits for one token in `trigger`; completion consumes the
/// token, puts one in `resume`, and sets the dirty bit `dirty` (place,
/// value) when one is given. An exponential duration stays a single timed
/// activity (the paper's `RMGp` activity); any other law expands into its
/// phase-type representation: an instantaneous dispatch picks the initial
/// phase, timed hops walk the sub-generator, and the exit rates complete
/// the safeguard. The trigger token remains in place throughout the
/// phases, so the Table 2 overhead predicates keep counting the blocked
/// time without modification.
fn add_safeguard(
    m: &mut SanModel,
    name: &str,
    dist: &Dist,
    trigger: PlaceId,
    resume: PlaceId,
    dirty: Option<(PlaceId, u32)>,
) -> Result<()> {
    let set_dirty = move |mk: &mut Marking| {
        if let Some((bit, value)) = dirty {
            mk.set_tokens(bit, value);
        }
    };
    if let Dist::Exp { rate } = dist {
        let mut activity = Activity::timed(name, *rate)
            .with_input_arc(trigger, 1)
            .with_output_arc(resume, 1);
        if dirty.is_some() {
            activity =
                activity.with_output_gate(m.add_output_gate(format!("{name}_done"), set_dirty));
        }
        m.add_activity(activity)?;
        return Ok(());
    }
    let ph = dist.to_phase_type()?;
    let k = ph.n_phases();
    let stage = m.add_place(format!("{name}_stage"), 0);
    let mut dispatch = Activity::instantaneous(format!("{name}_dispatch"))
        .with_enabling(move |mk| mk.tokens(trigger) == 1 && mk.tokens(stage) == 0);
    for (i, &a) in ph.initial().iter().enumerate() {
        if a <= 0.0 {
            continue;
        }
        let og = m.add_output_gate(format!("{name}_enter{i}"), move |mk| {
            mk.set_tokens(stage, i as u32 + 1)
        });
        dispatch = dispatch.with_case(Case::with_probability(a).with_output_gate(og));
    }
    m.add_activity(dispatch)?;
    for i in 0..k {
        let exit = ph.exit_rates()[i];
        if exit > 0.0 {
            let og = m.add_output_gate(format!("{name}_done{i}"), move |mk| {
                mk.set_tokens(stage, 0);
                set_dirty(mk);
            });
            m.add_activity(
                Activity::timed(format!("{name}_exit{i}"), exit)
                    .with_enabling(move |mk| mk.tokens(stage) == i as u32 + 1)
                    .with_input_arc(trigger, 1)
                    .with_output_arc(resume, 1)
                    .with_output_gate(og),
            )?;
        }
        for j in 0..k {
            if j == i {
                continue;
            }
            let hop = ph.sub_generator()[(i, j)];
            if hop > 0.0 {
                let og = m.add_output_gate(format!("{name}_hop{i}_{j}"), move |mk| {
                    mk.set_tokens(stage, j as u32 + 1)
                });
                m.add_activity(
                    Activity::timed(format!("{name}_hop{i}{j}"), hop)
                        .with_enabling(move |mk| mk.tokens(stage) == i as u32 + 1)
                        .with_output_gate(og),
                )?;
            }
        }
    }
    Ok(())
}

/// Builds the MDCD overhead model `RMGp` with phase-type safeguard
/// durations.
///
/// The MDCD rules represented (paper §5.1): `P1new` is always potentially
/// contaminated, so each of its **external** messages undergoes an AT that
/// blocks it (`P1nExt`); `P2` establishes a checkpoint (`P1nInt`) when it
/// receives a message from `P1new` while its dirty bit is clear, and skips
/// it otherwise; `P2`'s external messages undergo an AT (`P2Ext`) only
/// while its dirty bit is set, and a passed AT clears the bit; the shadow
/// `P1old` checkpoints (`P2Int`) on a message from a dirty `P2` while its
/// own dirty bit is clear, which costs `P1old` time but no mission worth.
///
/// # Errors
///
/// Propagates phase-type compilation and SAN construction failures.
pub fn build_gp(spec: &ScenarioSpec) -> Result<Gp> {
    let p = &spec.params;
    let lambda = p.lambda;
    let p_ext = p.p_ext;

    let mut m = SanModel::new("RMGp");
    let p1n_ready = m.add_place("P1nReady", 1);
    let p1n_ext = m.add_place("P1nExt", 0);
    let p1n_int = m.add_place("P1nInt", 0);
    let p2_ready = m.add_place("P2Ready", 1);
    let p2_ext = m.add_place("P2Ext", 0);
    let p2_int = m.add_place("P2Int", 0);
    let p1o_ready = m.add_place("P1oReady", 1);
    let p2_db = m.add_place("P2DB", 0);
    let p1o_db = m.add_place("P1oDB", 0);

    // P1new's message cycle: an external message (prob p_ext) blocks
    // P1new on its AT; an internal one makes a ready, clean P2 checkpoint.
    let og_start_p2_ckpt = m.add_output_gate("p2_ckpt_or_skip", move |mk| {
        if mk.tokens(p2_ready) == 1 && mk.tokens(p2_db) == 0 {
            mk.set_tokens(p2_ready, 0);
            mk.set_tokens(p1n_int, 1);
        }
    });
    m.add_activity(
        Activity::timed("P1nMsg", lambda)
            .with_input_arc(p1n_ready, 1)
            .with_case(Case::with_probability(p_ext).with_output_arc(p1n_ext, 1))
            .with_case(
                Case::with_probability(1.0 - p_ext)
                    .with_output_arc(p1n_ready, 1)
                    .with_output_gate(og_start_p2_ckpt),
            ),
    )?;
    add_safeguard(&mut m, "P1nAT", &spec.at, p1n_ext, p1n_ready, None)?;
    // Checkpoint completion: P2 resumes, now potentially contaminated.
    add_safeguard(
        &mut m,
        "P2_CKPT",
        &spec.ckpt,
        p1n_int,
        p2_ready,
        Some((p2_db, 1)),
    )?;

    // P2's message cycle.
    let og_p2_ext = m.add_output_gate("p2_ext_or_skip", move |mk| {
        if mk.tokens(p2_db) == 1 {
            mk.set_tokens(p2_ready, 0);
            mk.set_tokens(p2_ext, 1);
        }
    });
    let og_p1o_ckpt = m.add_output_gate("p1o_ckpt_or_skip", move |mk| {
        if mk.tokens(p2_db) == 1 && mk.tokens(p1o_db) == 0 && mk.tokens(p1o_ready) == 1 {
            mk.set_tokens(p1o_ready, 0);
            mk.set_tokens(p2_int, 1);
        }
    });
    m.add_activity(
        Activity::timed("P2Msg", lambda)
            .with_enabling(move |mk| mk.tokens(p2_ready) == 1)
            .with_case(Case::with_probability(p_ext).with_output_gate(og_p2_ext))
            .with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og_p1o_ckpt)),
    )?;
    // A passed AT restores confidence in P2.
    add_safeguard(&mut m, "P2AT", &spec.at, p2_ext, p2_ready, Some((p2_db, 0)))?;
    add_safeguard(
        &mut m,
        "P1o_CKPT",
        &spec.ckpt,
        p2_int,
        p1o_ready,
        Some((p1o_db, 1)),
    )?;

    Ok(Gp {
        model: m,
        places: GpPlaces {
            p1n_ready,
            p1n_ext,
            p1n_int,
            p2_ready,
            p2_ext,
            p2_int,
            p1o_ready,
            p2_db,
            p1o_db,
        },
    })
}

/// The paper's Table 2 reward structure for `1 − ρ1`: predicate
/// `MARK(P1nExt) == 1`, rate 1 (a phase expansion keeps the trigger token
/// in `P1nExt` for the whole AT duration).
pub fn one_minus_rho1_spec(places: &GpPlaces) -> RewardSpec {
    let p1n_ext = places.p1n_ext;
    RewardSpec::new().rate_when(move |mk: &Marking| mk.tokens(p1n_ext) == 1, 1.0)
}

/// The paper's Table 2 reward structure for `1 − ρ2`: predicate
/// `(MARK(P1nInt)==1 && MARK(P2DB)==0) || (MARK(P2Ext)==1 && MARK(P2DB)==1)`,
/// rate 1.
pub fn one_minus_rho2_spec(places: &GpPlaces) -> RewardSpec {
    let p1n_int = places.p1n_int;
    let p2_ext = places.p2_ext;
    let p2_db = places.p2_db;
    RewardSpec::new().rate_when(
        move |mk: &Marking| {
            (mk.tokens(p1n_int) == 1 && mk.tokens(p2_db) == 0)
                || (mk.tokens(p2_ext) == 1 && mk.tokens(p2_db) == 1)
        },
        1.0,
    )
}

/// A solved `RMGp` steady state: the overhead measures plus the stationary
/// vector they were read from, for warm-starting neighboring solves.
#[derive(Debug, Clone, PartialEq)]
pub struct RhoSolution {
    /// Forward-progress fraction of `P1new`.
    pub rho1: f64,
    /// Forward-progress fraction of `P2`.
    pub rho2: f64,
    /// The stationary distribution over the `RMGp` state space — pass it as
    /// the `hint` of [`solve_rho_continued`] at a nearby parameter point
    /// (parameter continuation) to cut the solver's iteration count.
    pub pi: Vec<f64>,
}

/// Solves the steady-state overhead measures `(ρ1, ρ2)` on `RMGp`.
///
/// # Errors
///
/// Propagates model generation and steady-state solver failures.
pub fn solve_rho(spec: &ScenarioSpec) -> Result<(f64, f64)> {
    let s = solve_rho_continued(spec, None)?;
    Ok((s.rho1, s.rho2))
}

/// [`solve_rho`] with an optional warm-start `hint` — the stationary vector
/// from a neighboring parameter point ([`RhoSolution::pi`]). Both reward
/// measures are read from a single cached stationary solve; the hint
/// affects only the iteration count, never the result.
///
/// # Errors
///
/// Propagates model generation and steady-state solver failures.
pub fn solve_rho_continued(spec: &ScenarioSpec, hint: Option<&[f64]>) -> Result<RhoSolution> {
    let gp = build_gp(spec)?;
    let mut analyzer = san::Analyzer::generate(&gp.model, &Default::default())?
        .with_steady_method(markov::steady::SteadyMethod::Auto);
    if let Some(h) = hint {
        analyzer = analyzer.with_steady_hint(h.to_vec());
    }
    let overhead1 = analyzer.steady_reward(&one_minus_rho1_spec(&gp.places))?;
    let overhead2 = analyzer.steady_reward(&one_minus_rho2_spec(&gp.places))?;
    let pi = analyzer.steady_distribution()?.as_ref().clone();
    Ok(RhoSolution {
        rho1: 1.0 - overhead1,
        rho2: 1.0 - overhead2,
        pi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsu::{gop_measures, AgingSpec, WaveSpec};
    use crate::GsuParams;
    use san::Analyzer;

    fn paper_spec() -> ScenarioSpec {
        GsuParams::paper_baseline().into()
    }

    fn scaled_spec() -> ScenarioSpec {
        // The scaled-down regime of tests/analytic_vs_simulation.rs: faults
        // are frequent enough that generalization effects show up.
        let params = GsuParams {
            theta: 50.0,
            lambda: 40.0,
            mu_new: 0.02,
            mu_old: 1e-7,
            coverage: 0.95,
            p_ext: 0.1,
            alpha: 200.0,
            beta: 200.0,
        };
        params.into()
    }

    #[test]
    fn rho1_is_insensitive_to_at_distribution() {
        // Renewal-reward: 1−ρ1 = (p_ext·E[AT])/(1/λ + p_ext·E[AT]) depends
        // on the AT duration only through its mean, so an Erlang AT of the
        // same mean must give the same ρ1.
        let mut spec = paper_spec();
        let (exp1, _) = solve_rho(&spec).unwrap();
        spec.at = Dist::Erlang {
            k: 4,
            rate: 4.0 * spec.params.alpha,
        };
        let (erl1, erl2) = solve_rho(&spec).unwrap();
        assert!((erl1 - exp1).abs() < 1e-7, "{erl1} vs {exp1}");
        assert!((0.0..=1.0).contains(&erl2));
    }

    #[test]
    fn hyper_and_det_safeguards_solve() {
        let mut spec = paper_spec();
        spec.at = Dist::Hyper {
            branches: vec![(0.3, 2000.0), (0.7, 12_000.0)],
        };
        spec.ckpt = Dist::Det {
            mean: 1.0 / 6000.0,
            stages: 6,
        };
        let (r1, r2) = solve_rho(&spec).unwrap();
        assert!((0.0..=1.0).contains(&r1));
        assert!((0.0..=1.0).contains(&r2));
        // Same AT mean as the baseline's exponential: ρ1 is mean-driven.
        let at_mean: f64 = 0.3 / 2000.0 + 0.7 / 12_000.0;
        let p = spec.params;
        let want = 1.0 - (p.p_ext * at_mean) / (1.0 / p.lambda + p.p_ext * at_mean);
        assert!((r1 - want).abs() < 1e-7, "{r1} vs {want}");
    }

    #[test]
    fn more_escorts_lower_survival() {
        let mut spec = scaled_spec();
        let mut last = 1.0;
        for n in [1, 2, 3] {
            spec.escorts = n;
            let gd = build_gd(&spec).unwrap();
            let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
            let phi = spec.params.theta;
            let m = gop_measures(&an, gd.places.clone(), phi).unwrap();
            assert!(
                m.p_a1 < last + 1e-12,
                "escorts = {n}: {} should not exceed {last}",
                m.p_a1
            );
            last = m.p_a1;
        }
    }

    #[test]
    fn coverage_decay_reduces_detection() {
        let mut spec = scaled_spec();
        // Raise µ_old so that multi-process contamination has real mass.
        spec.params.mu_old = 0.01;
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let base = gop_measures(&an, gd.places.clone(), 50.0).unwrap();
        spec.coverage_decay = 0.5;
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let decayed = gop_measures(&an, gd.places.clone(), 50.0).unwrap();
        assert!(
            decayed.i_h < base.i_h,
            "decay should reduce detection: {} vs {}",
            decayed.i_h,
            base.i_h
        );
    }

    #[test]
    fn upgrade_waves_improve_survival() {
        let mut spec = scaled_spec();
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let base = gop_measures(&an, gd.places.clone(), 50.0).unwrap();
        spec.waves = Some(WaveSpec {
            count: 3,
            rate: 0.5,
            factor: 0.1,
        });
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let waved = gop_measures(&an, gd.places.clone(), 50.0).unwrap();
        assert!(
            waved.p_a1 > base.p_a1,
            "waves should improve survival: {} vs {}",
            waved.p_a1,
            base.p_a1
        );
    }

    #[test]
    fn aging_hurts_and_rejuvenation_helps() {
        let mut spec = scaled_spec();
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let base = gop_measures(&an, gd.places.clone(), 50.0).unwrap();
        spec.aging = Some(AgingSpec {
            rate: 0.5,
            factor: 200.0,
            rejuvenation: None,
        });
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let aged = gop_measures(&an, gd.places.clone(), 50.0).unwrap();
        assert!(aged.p_a1 < base.p_a1, "{} vs {}", aged.p_a1, base.p_a1);
        spec.aging = Some(AgingSpec {
            rate: 0.5,
            factor: 200.0,
            rejuvenation: Some(5.0),
        });
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let rejuv = gop_measures(&an, gd.places.clone(), 50.0).unwrap();
        assert!(
            rejuv.p_a1 > aged.p_a1,
            "rejuvenation should help: {} vs {}",
            rejuv.p_a1,
            aged.p_a1
        );
    }
}

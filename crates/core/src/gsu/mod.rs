//! The three SAN reward models at the base-model level (paper §5).
//!
//! The successive model translation of §4 reduces the performability index
//! `Y` to nine constituent reward variables; this module provides the
//! composite base model that supports them. Every analysis starts from a
//! [`ScenarioSpec`] and goes through one lowering, [`lower`]; the paper's
//! models are its paper-shaped case, with one entry point each:
//!
//! * [`rmgd`] — `RMGd`, dependability behaviour during the guarded-operation
//!   interval (submodel of `X'` for dependability measures; paper Fig. 6);
//! * [`rmgp`] — `RMGp`, performance-overhead behaviour under the G-OP mode
//!   (submodel of `X'` for the steady-state measures `ρ1`, `ρ2`; Fig. 7);
//! * [`rmnd`] — `RMNd`, normal-mode behaviour (the model of `X''`; Fig. 8).

pub mod lower;
pub mod measure_engine;
pub mod rmgd;
pub mod rmgp;
pub mod rmnd;
pub mod spec;

pub use lower::{GdPlaces, GpPlaces, NpPlaces, RhoSolution};
pub use measure_engine::{gop_measures, GopMeasures, GopStateSets};
pub use rmgd::RmgdPlaces;
pub use spec::{AgingSpec, Dist, ScenarioSpec, WaveSpec};

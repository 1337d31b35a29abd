//! Scoring: the incremental engine (Eq. 4 assignment scores) and the
//! independent utility evaluator (Eq. 1–3).

mod engine;
pub mod utility;

pub use engine::{gain, EngineProfile, ScoringEngine, StaticCaches};

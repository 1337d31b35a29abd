//! # ses-experiments — the figure-regeneration harness
//!
//! For **every table and figure** of the paper's evaluation (§4) this crate
//! provides a runner producing the same rows/series the paper plots:
//!
//! | Paper artifact | Runner |
//! |----------------|--------|
//! | Fig 5 (utility/computations/time vs `k`) | [`figures::fig5::run`] |
//! | Fig 6 (utility/time vs `|T|`)            | [`figures::fig6::run`] |
//! | Fig 7 (utility/time vs `|E|`)            | [`figures::fig7::run`] |
//! | Fig 8 (time vs `|U|`, two `|T|` settings)| [`figures::fig8::run`] |
//! | Fig 9 (utility/time vs locations)        | [`figures::fig9::run`] |
//! | Fig 10a (worst case w.r.t. `k`, `|T|`)   | [`figures::fig10::run_worst_case`] |
//! | Fig 10b (ALG vs INC search space)        | [`figures::fig10::run_search_space`] |
//! | §4.2.8 quality summary                   | [`figures::summary::run`] |
//! | Table 1 (parameter space)                | `ses_datasets::params::table1` |
//! | Dynamic op streams (beyond the paper)    | [`figures::dynamic::run`] |
//! | Constraint-layer overhead (beyond paper) | [`figures::constrained::run`] |
//!
//! Runs are laptop-scaled via [`runner::ExperimentConfig`] (the paper used a
//! Xeon with up to 1M users and multi-hour budgets); EXPERIMENTS.md records
//! the paper-vs-measured comparison for each artifact.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod report;
pub mod runner;

pub use report::{FigureReport, Metric, RunRecord};
pub use runner::{run_lineup, ExperimentConfig};

//! # ses-algorithms — schedulers for the SES problem
//!
//! The four algorithms of *"Attendance Maximization for Successful Social
//! Event Planning"* (EDBT 2019) plus its baselines and a test oracle:
//!
//! | Algorithm | Module | Paper | Guarantee |
//! |-----------|--------|-------|-----------|
//! | `ALG`     | [`alg`]    | §3.1 (from ICDE'18 [4]) | greedy reference |
//! | `INC`     | [`inc`]    | §3.2, Algorithm 1 | same solution as ALG (Prop. 3) |
//! | `HOR`     | [`hor`]    | §3.3, Algorithm 2 | ALG-quality in >70% of runs |
//! | `HOR-I`   | [`hor_i`]  | §3.4, Algorithm 3 | same solution as HOR (Prop. 6) |
//! | `TOP`     | [`top`]    | §4.1 baseline | minimum computations |
//! | `RAND`    | [`random`] | §4.1 baseline | seeded |
//! | `EXACT`   | [`exact`]  | — | optimal (tiny instances; test oracle) |
//! | `LAZY`    | [`lazy`]   | — | CELF-style ablation; same solution as ALG |
//! | `REFINED` | [`refine`] | — | local-search post-processing (extension) |
//! | `PROFIT`  | [`extensions`] | §2.1 profit variant | ALG's loop over `revenue·gain − cost` |
//! | `STREAM`  | [`stream`] | — | incremental repair under delta-op streams; same solution as a full recompute |
//!
//! All schedulers implement the [`Scheduler`] trait, share one deterministic
//! tie-break order (see [`common::Cand`]), and report a [`ScheduleResult`]
//! carrying the schedule, its independently evaluated utility Ω(S), the
//! paper's instrumentation counters, and wall time. Every scoring scheduler
//! runs through one crate-internal helper that builds and profiles its
//! engine and packs that result, so a scheduler module holds only its
//! selection. [`SchedulerKind`] is the one table that names, resolves and
//! runs them.
//!
//! ```
//! use ses_algorithms::prelude::*;
//! use ses_core::model::running_example;
//!
//! let inst = running_example();
//! let result = HorI.run(&inst, 3);
//! assert_eq!(result.schedule.len(), 3);
//! assert!((result.utility - 1.4073).abs() < 5e-4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alg;
pub mod common;
pub mod exact;
pub mod extensions;
pub mod hor;
pub mod hor_i;
pub mod inc;
pub mod lazy;
pub mod random;
pub mod refine;
pub mod service;
pub mod stream;
pub mod top;

pub use common::{RunConfig, ScheduleResult, Scheduler, Scratch};
pub use service::{
    DurableService, NetConfig, Request, Response, SesService, SessionBackend, SessionManager,
};

use serde::{Deserialize, Serialize};
use ses_core::error::ServiceError;
use ses_core::model::Instance;

/// Enumerates the available schedulers — the one scheduler table. The CLI,
/// the experiment harness and the service name, resolve and run every
/// scheduler through it; it implements [`Scheduler`] by dispatching to the
/// named type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Baseline greedy of [4] (§3.1).
    Alg,
    /// Incremental Updating (§3.2).
    Inc,
    /// Horizontal Assignment (§3.3).
    Hor,
    /// Horizontal + Incremental (§3.4).
    HorI,
    /// Top-k-by-initial-score baseline.
    Top,
    /// Random baseline with a seed.
    Rand(u64),
    /// Exact branch & bound (tiny instances only).
    Exact,
    /// CELF-style lazy greedy (ablation; same solution as ALG).
    Lazy,
    /// HOR followed by local-search refinement (extension).
    RefinedHor,
}

impl SchedulerKind {
    /// Every kind, with `RAND` seeded 0 (the seed [`parse`](Self::parse)
    /// assigns). This order is the `known:` list of an unknown-algorithm
    /// error.
    pub const ALL: [SchedulerKind; 9] = [
        Self::Alg,
        Self::Inc,
        Self::Hor,
        Self::HorI,
        Self::Top,
        Self::Rand(0),
        Self::Exact,
        Self::Lazy,
        Self::RefinedHor,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Alg => "ALG",
            Self::Inc => "INC",
            Self::Hor => "HOR",
            Self::HorI => "HOR-I",
            Self::Top => "TOP",
            Self::Rand(_) => "RAND",
            Self::Exact => "EXACT",
            Self::Lazy => "LAZY",
            Self::RefinedHor => "HOR+LS",
        }
    }

    /// Parses a (case-insensitive) scheduler name; `RAND` gets seed 0.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "ALG" => Some(Self::Alg),
            "INC" => Some(Self::Inc),
            "HOR" => Some(Self::Hor),
            "HOR-I" | "HORI" | "HOR_I" => Some(Self::HorI),
            "TOP" => Some(Self::Top),
            "RAND" | "RANDOM" => Some(Self::Rand(0)),
            "EXACT" => Some(Self::Exact),
            "LAZY" => Some(Self::Lazy),
            "HOR+LS" | "HORLS" | "REFINED" => Some(Self::RefinedHor),
            _ => None,
        }
    }

    /// [`parse`](Self::parse) with the service's error: an unknown name is
    /// [`ServiceError::UnknownAlgorithm`] carrying the names of
    /// [`ALL`](Self::ALL).
    ///
    /// # Errors
    /// [`ServiceError::UnknownAlgorithm`] when `name` parses to no kind.
    pub fn resolve(name: &str) -> Result<Self, ServiceError> {
        Self::parse(name).ok_or_else(|| ServiceError::UnknownAlgorithm {
            name: name.to_string(),
            known: Self::ALL.iter().map(|k| k.name()).collect(),
        })
    }

    /// The six methods of the paper's evaluation (§4.1), in plot order.
    pub fn paper_lineup() -> [SchedulerKind; 6] {
        [Self::Alg, Self::Inc, Self::Hor, Self::HorI, Self::Top, Self::Rand(0)]
    }
}

impl Scheduler for SchedulerKind {
    fn name(&self) -> &'static str {
        SchedulerKind::name(*self)
    }

    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        scratch: &mut Scratch,
    ) -> ScheduleResult {
        match *self {
            Self::Alg => alg::Alg.run_configured(inst, k, cfg, scratch),
            Self::Inc => inc::Inc.run_configured(inst, k, cfg, scratch),
            Self::Hor => hor::Hor.run_configured(inst, k, cfg, scratch),
            Self::HorI => hor_i::HorI.run_configured(inst, k, cfg, scratch),
            Self::Top => top::Top.run_configured(inst, k, cfg, scratch),
            Self::Rand(seed) => random::Rand::with_seed(seed).run_configured(inst, k, cfg, scratch),
            Self::Exact => exact::Exact.run_configured(inst, k, cfg, scratch),
            Self::Lazy => lazy::LazyGreedy.run_configured(inst, k, cfg, scratch),
            Self::RefinedHor => {
                let mut res = refine::Refined::new(hor::Hor).run_configured(inst, k, cfg, scratch);
                res.algorithm = self.name();
                res
            }
        }
    }
}

/// Convenient glob-import: the scheduler types and trait.
pub mod prelude {
    pub use crate::alg::Alg;
    pub use crate::common::{ScheduleResult, Scheduler};
    pub use crate::exact::Exact;
    pub use crate::extensions::ProfitGreedy;
    pub use crate::hor::Hor;
    pub use crate::hor_i::HorI;
    pub use crate::inc::Inc;
    pub use crate::lazy::LazyGreedy;
    pub use crate::random::Rand;
    pub use crate::refine::{LocalSearch, Refined};
    pub use crate::service::{Request, Response, SesService};
    pub use crate::stream::StreamScheduler;
    pub use crate::top::Top;
    pub use crate::SchedulerKind;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_core::model::running_example;
    use ses_core::parallel::Threads;

    #[test]
    fn parse_names() {
        assert_eq!(SchedulerKind::parse("alg"), Some(SchedulerKind::Alg));
        assert_eq!(SchedulerKind::parse("lazy"), Some(SchedulerKind::Lazy));
        assert_eq!(SchedulerKind::parse("hor+ls"), Some(SchedulerKind::RefinedHor));
        assert_eq!(SchedulerKind::parse("HOR-I"), Some(SchedulerKind::HorI));
        assert_eq!(SchedulerKind::parse("hori"), Some(SchedulerKind::HorI));
        assert_eq!(SchedulerKind::parse("random"), Some(SchedulerKind::Rand(0)));
        assert_eq!(SchedulerKind::parse("bogus"), None);
    }

    #[test]
    fn every_kind_runs() {
        // `ALL` is the canonical every-kind table — no local copy.
        let inst = running_example();
        for kind in SchedulerKind::ALL {
            let res = kind.run(&inst, 2);
            assert_eq!(res.algorithm, kind.name());
            assert!(res.schedule.verify_feasible(&inst).is_ok(), "{}", kind.name());
        }
    }

    #[test]
    fn all_covers_every_kind() {
        let names: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["ALG", "INC", "HOR", "HOR-I", "TOP", "RAND", "EXACT", "LAZY", "HOR+LS"]
        );
        // Every parsed name lands in the table.
        for name in names {
            assert!(SchedulerKind::ALL.contains(&SchedulerKind::parse(name).unwrap()));
        }
    }

    #[test]
    fn resolve_accepts_aliases_and_rejects_unknowns() {
        let name = |s: &str| SchedulerKind::resolve(s).unwrap().name();
        assert_eq!(name("hor-i"), "HOR-I");
        assert_eq!(name("hori"), "HOR-I");
        assert_eq!(name("random"), "RAND");
        assert_eq!(name("refined"), "HOR+LS");
        let err = SchedulerKind::resolve("bogus").unwrap_err();
        match &err {
            ServiceError::UnknownAlgorithm { name, known } => {
                assert_eq!(name, "bogus");
                assert!(known.contains(&"INC"));
            }
            other => panic!("wrong error {other:?}"),
        }
        assert!(err.is_usage());
    }

    /// Running every kind twice through one shared scratch pool must be
    /// bit-identical to a run on a fresh pool: no kind's leftovers leak
    /// into another's result.
    #[test]
    fn shared_scratch_runs_match_direct_runs() {
        let inst = running_example();
        let cfg = RunConfig::threaded(Threads::sequential());
        let mut scratch = Scratch::new();
        for kind in SchedulerKind::ALL.iter().chain(&SchedulerKind::ALL) {
            let shared = kind.run_configured(&inst, 3, cfg, &mut scratch);
            let direct = kind.run_configured(&inst, 3, cfg, &mut Scratch::new());
            assert_eq!(shared.algorithm, direct.algorithm);
            assert_eq!(shared.schedule.assignments(), direct.schedule.assignments());
            assert_eq!(shared.utility.to_bits(), direct.utility.to_bits());
            assert_eq!(shared.stats, direct.stats);
        }
    }

    #[test]
    fn paper_lineup_follows_plot_order() {
        let names: Vec<&str> = SchedulerKind::paper_lineup().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["ALG", "INC", "HOR", "HOR-I", "TOP", "RAND"]);
    }
}

//! The scheduler registry: the canonical list of scheduler kinds.
//!
//! Before the service existed, the CLI, the experiment harness, and the
//! test suites each kept their own ad-hoc `match`/array tables mapping
//! scheduler names to constructors. [`SchedulerRegistry`] replaces them:
//! it lists the registered [`SchedulerKind`]s, resolves (aliased,
//! case-insensitive) names through the single parser
//! ([`SchedulerKind::parse`]), and hands out entries as kinds, which run
//! through [`SchedulerKind::run_configured`] — the one dispatch table.

use crate::SchedulerKind;
use ses_core::error::ServiceError;

/// Name → scheduler-kind registry (see the module docs). Entries are
/// addressed by index, in registration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerRegistry {
    kinds: Vec<SchedulerKind>,
}

impl SchedulerRegistry {
    /// The full standard registry: every [`SchedulerKind`], with `RAND`
    /// seeded 0 (the seed [`SchedulerKind::parse`] assigns).
    pub fn standard() -> Self {
        Self::from_kinds([
            SchedulerKind::Alg,
            SchedulerKind::Inc,
            SchedulerKind::Hor,
            SchedulerKind::HorI,
            SchedulerKind::Top,
            SchedulerKind::Rand(0),
            SchedulerKind::Exact,
            SchedulerKind::Lazy,
            SchedulerKind::RefinedHor,
        ])
    }

    /// A registry over an explicit kind list (order is preserved and
    /// becomes the entry indexing).
    fn from_kinds(kinds: impl IntoIterator<Item = SchedulerKind>) -> Self {
        Self { kinds: kinds.into_iter().collect() }
    }

    /// Number of registered schedulers.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The canonical display names, in entry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.kinds.iter().map(|k| k.name()).collect()
    }

    /// The registered kinds, in entry order.
    pub fn kinds(&self) -> Vec<SchedulerKind> {
        self.kinds.clone()
    }

    /// The kind tag of entry `idx`.
    pub fn kind(&self, idx: usize) -> SchedulerKind {
        self.kinds[idx]
    }

    /// The canonical display name of entry `idx`.
    pub fn name(&self, idx: usize) -> &'static str {
        self.kinds[idx].name()
    }

    /// Resolves a (case-insensitive, alias-tolerant) scheduler name to an
    /// entry index.
    ///
    /// # Errors
    /// [`ServiceError::UnknownAlgorithm`] carrying the canonical names this
    /// registry does know.
    pub fn resolve(&self, name: &str) -> Result<usize, ServiceError> {
        SchedulerKind::parse(name).and_then(|kind| self.resolve_kind(kind)).ok_or_else(|| {
            ServiceError::UnknownAlgorithm { name: name.to_string(), known: self.names() }
        })
    }

    /// The entry index of an exact kind (including `Rand`'s seed), if
    /// registered.
    pub fn resolve_kind(&self, kind: SchedulerKind) -> Option<usize> {
        self.kinds.iter().position(|&k| k == kind)
    }

    /// Entry indices of the paper's six-method evaluation lineup (§4.1),
    /// in plot order — the subset the CLI and harness default to.
    pub fn paper_indices(&self) -> Vec<usize> {
        SchedulerKind::paper_lineup().iter().filter_map(|k| self.resolve_kind(*k)).collect()
    }
}

impl Default for SchedulerRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{RunConfig, Scratch};
    use ses_core::model::running_example;
    use ses_core::parallel::Threads;

    #[test]
    fn standard_registry_covers_every_kind() {
        let reg = SchedulerRegistry::standard();
        assert_eq!(reg.len(), 9);
        assert_eq!(
            reg.names(),
            vec!["ALG", "INC", "HOR", "HOR-I", "TOP", "RAND", "EXACT", "LAZY", "HOR+LS"]
        );
    }

    #[test]
    fn resolve_accepts_aliases_and_rejects_unknowns() {
        let reg = SchedulerRegistry::standard();
        assert_eq!(reg.name(reg.resolve("hor-i").unwrap()), "HOR-I");
        assert_eq!(reg.name(reg.resolve("hori").unwrap()), "HOR-I");
        assert_eq!(reg.name(reg.resolve("random").unwrap()), "RAND");
        assert_eq!(reg.name(reg.resolve("refined").unwrap()), "HOR+LS");
        let err = reg.resolve("bogus").unwrap_err();
        match &err {
            ServiceError::UnknownAlgorithm { name, known } => {
                assert_eq!(name, "bogus");
                assert!(known.contains(&"INC"));
            }
            other => panic!("wrong error {other:?}"),
        }
        assert!(err.is_usage());
    }

    /// Running every entry twice through one shared scratch pool must be
    /// bit-identical to a run on a fresh pool: no entry's leftovers leak
    /// into another's result.
    #[test]
    fn registry_runs_match_direct_runs() {
        let reg = SchedulerRegistry::standard();
        let inst = running_example();
        let cfg = RunConfig::threaded(Threads::sequential());
        let mut scratch = Scratch::new();
        for idx in (0..reg.len()).chain(0..reg.len()) {
            let via_registry = reg.kind(idx).run_configured(&inst, 3, cfg, &mut scratch);
            let direct = reg.kind(idx).run_configured(&inst, 3, cfg, &mut Scratch::new());
            assert_eq!(via_registry.algorithm, direct.algorithm);
            assert_eq!(via_registry.schedule.assignments(), direct.schedule.assignments());
            assert_eq!(via_registry.utility.to_bits(), direct.utility.to_bits());
            assert_eq!(via_registry.stats, direct.stats);
        }
    }

    #[test]
    fn paper_indices_follow_plot_order() {
        let reg = SchedulerRegistry::standard();
        let names: Vec<&str> = reg.paper_indices().into_iter().map(|i| reg.name(i)).collect();
        assert_eq!(names, vec!["ALG", "INC", "HOR", "HOR-I", "TOP", "RAND"]);
    }
}

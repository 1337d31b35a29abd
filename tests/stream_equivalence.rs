//! The differential layer behind the dynamic-workload subsystem: replaying
//! a seeded 500-op delta stream through the incremental [`StreamScheduler`]
//! must be **result-equivalent to full recompute at every step** — the
//! exact assignment sequence and utility bits of an `INC` run on the
//! materialized instance — while examining strictly fewer assignments than
//! a from-scratch rebuild, and bit-identical across thread counts
//! (schedule, utility bits, full `Stats`), extending the
//! `tests/parallel_equivalence.rs` contract to the repair path.
//!
//! Two structurally different regimes are exercised: a dense synthetic
//! base with moderate churn, and a sparse Meetup-like base with heavy
//! churn and sparse generated interest.

use social_event_scheduling::algorithms::stream::StreamScheduler;
use social_event_scheduling::algorithms::{Scheduler, SchedulerKind};
use social_event_scheduling::core::delta;
use social_event_scheduling::core::model::StorageKind;
use social_event_scheduling::core::parallel::Threads;
use social_event_scheduling::datasets::ops::{self, OpStreamParams};
use social_event_scheduling::datasets::Dataset;

/// One 500-op scenario: base dataset, shape, stream knobs, and (optionally)
/// an interest-storage override for the live base.
struct Scenario {
    dataset: Dataset,
    churn: f64,
    user_churn: f64,
    density: f64,
    seed: u64,
    storage: Option<StorageKind>,
}

const K: usize = 8;
const OPS: usize = 500;

fn run_scenario(s: &Scenario) {
    let mut base = s.dataset.build(70, 18, 6, s.seed);
    if let Some(kind) = s.storage {
        base.event_interest = base.event_interest.convert_to(kind);
        base.competing_interest = base.competing_interest.convert_to(kind);
    }
    let params = OpStreamParams::default()
        .with_ops(OPS)
        .with_churn(s.churn)
        .with_user_churn(s.user_churn)
        .with_interest_density(s.density)
        .with_seed(s.seed ^ 0x5EED);
    let stream_ops = ops::generate(&base, &params);
    assert_eq!(stream_ops.len(), OPS);

    let label = format!("{}/churn={}", s.dataset.name(), s.churn);
    let (mut i1, mut i4) = (base.clone(), base.clone());
    let mut s1 = StreamScheduler::new(&i1, K, Threads::sequential());
    let mut s4 = StreamScheduler::new(&i4, K, Threads::new(4));
    assert_eq!(s1.last_repair().stats, s4.last_repair().stats, "{label}: cold-build stats");
    let mut mat = base;
    for (i, op) in stream_ops.iter().enumerate() {
        delta::apply(&mut mat, op).unwrap_or_else(|e| panic!("{label} op {i}: {e}"));
        let r1 = s1.apply(&mut i1, op).unwrap_or_else(|e| panic!("{label} op {i}: {e}")).clone();
        let r4 = s4.apply(&mut i4, op).unwrap_or_else(|e| panic!("{label} op {i}: {e}")).clone();

        // Thread count never changes a repair: same schedule, same utility
        // bits, same full Stats.
        assert_eq!(r1.stats, r4.stats, "{label} op {i} ({}): stats diverged", op.kind());
        assert_eq!(
            s1.schedule().assignments(),
            s4.schedule().assignments(),
            "{label} op {i}: schedules diverged across threads"
        );
        assert_eq!(s1.utility().to_bits(), s4.utility().to_bits(), "{label} op {i}");

        // The live instance tracks the independent materialization exactly.
        assert_eq!(i1, mat, "{label} op {i}: instance drifted");

        // Result-equivalence to full recompute: INC on the materialized
        // instance, assignment for assignment, utility bit for bit.
        let inc = SchedulerKind::Inc.run(&mat, K);
        assert_eq!(
            s1.schedule().assignments(),
            inc.schedule.assignments(),
            "{label} op {i} ({}): repair diverged from INC recompute",
            op.kind()
        );
        assert_eq!(
            s1.utility().to_bits(),
            inc.utility.to_bits(),
            "{label} op {i}: utility bits diverged from INC recompute"
        );

        // Work bound: a single-op repair examines strictly fewer
        // assignments than a cold rebuild of the same post-op instance.
        let cold = StreamScheduler::new(&mat, K, Threads::sequential());
        let rebuilt = cold.last_repair().stats.assignments_examined;
        assert!(
            r1.stats.assignments_examined < rebuilt,
            "{label} op {i} ({}): repair examined {} !< rebuild {}",
            op.kind(),
            r1.stats.assignments_examined,
            rebuilt
        );
    }
    assert_eq!(s1.ops_applied(), OPS as u64);
}

#[test]
fn dense_base_moderate_churn_500_ops() {
    run_scenario(&Scenario {
        dataset: Dataset::Unf,
        churn: 0.3,
        user_churn: 0.3,
        density: 1.0,
        seed: 0xA11,
        storage: None,
    });
}

#[test]
fn dense_base_heavy_structural_churn_500_ops() {
    run_scenario(&Scenario {
        dataset: Dataset::Zip,
        churn: 0.8,
        user_churn: 0.5,
        density: 1.0,
        seed: 0xB22,
        storage: None,
    });
}

#[test]
fn sparse_base_sparse_drift_500_ops() {
    run_scenario(&Scenario {
        dataset: Dataset::Meetup,
        churn: 0.5,
        user_churn: 0.4,
        density: 0.25,
        seed: 0xC33,
        storage: None,
    });
}

/// A compressed-backend live base: the repair path mutates the instance
/// through every delta op (interest drift, event/user churn) while the
/// interest matrices live in the dictionary-encoded columnar layout —
/// and must stay bit-identical to the dense INC recompute at every step.
#[test]
fn compressed_base_moderate_churn_500_ops() {
    run_scenario(&Scenario {
        dataset: Dataset::Unf,
        churn: 0.3,
        user_churn: 0.3,
        density: 1.0,
        seed: 0xD44,
        storage: Some(StorageKind::Compressed),
    });
}

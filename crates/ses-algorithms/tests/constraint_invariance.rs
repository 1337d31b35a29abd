//! Property-based thread-invariance for **constrained** scheduling:
//! random constraint families over random instances must not disturb the
//! workspace's bit-identity discipline. Every probed scheduler, on dense
//! *and* sparse interest layouts, returns the same assignment sequence,
//! the same utility mantissa, and the same full `Stats` record at 1, 2,
//! and 8 worker threads — with a constraint set in play, so the
//! feasibility gate runs inside the hot path on every candidate.

use proptest::prelude::*;
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_core::parallel::{Threads, PAR_BLOCK};
use ses_core::Instance;
use ses_datasets::{ConstraintFamily, Dataset};

/// Thread widths beyond the sequential reference.
const THREAD_COUNTS: [usize; 2] = [2, 8];

fn family(ix: usize) -> ConstraintFamily {
    ConstraintFamily::ALL[ix % ConstraintFamily::ALL.len()]
}

/// A constrained instance whose dense columns span ≥ 2 reduction blocks,
/// so the threaded sweeps genuinely split work.
fn constrained_instance(seed: u64, events: usize, fam: usize) -> Instance {
    let mut inst = Dataset::Unf.build(PAR_BLOCK + 211, events, 6, seed);
    family(fam).apply(&mut inst, seed ^ 0x17);
    inst
}

fn assert_bit_identical(kind: SchedulerKind, inst: &Instance, k: usize, layout: &str) {
    let seq = kind.run_threaded(inst, k, Threads::sequential());
    seq.schedule.verify_feasible(inst).expect("constrained schedule must be feasible");
    for &n in &THREAD_COUNTS {
        let par = kind.run_threaded(inst, k, Threads::new(n));
        assert_eq!(
            seq.schedule.assignments(),
            par.schedule.assignments(),
            "{layout}/{}/t{n}: constrained schedule diverged",
            kind.name()
        );
        assert_eq!(
            seq.utility.to_bits(),
            par.utility.to_bits(),
            "{layout}/{}/t{n}: constrained utility bits diverged ({} vs {})",
            kind.name(),
            seq.utility,
            par.utility
        );
        assert_eq!(
            seq.stats,
            par.stats,
            "{layout}/{}/t{n}: constrained stats diverged",
            kind.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Constrained scheduling is thread-invariant, bit for bit, on the
    /// dense interest layout.
    #[test]
    fn constrained_dense_bit_identical_across_threads(
        seed in 0u64..10_000,
        events in 16usize..28,
        fam in 0usize..4,
        k in 6usize..10,
    ) {
        let inst = constrained_instance(seed, events, fam);
        for kind in [SchedulerKind::Alg, SchedulerKind::Inc, SchedulerKind::Hor, SchedulerKind::HorI] {
            assert_bit_identical(kind, &inst, k, "dense");
        }
    }

    /// The sparse (non-zero-list) layout drives the positional reduction
    /// variant; the constrained gate must stay bit-invariant there too.
    #[test]
    fn constrained_sparse_bit_identical_across_threads(
        seed in 0u64..10_000,
        events in 16usize..28,
        fam in 0usize..4,
        k in 6usize..10,
    ) {
        let dense = constrained_instance(seed, events, fam);
        let mut sparse = dense.clone();
        sparse.event_interest = dense.event_interest.to_sparse().into();
        sparse.competing_interest = dense.competing_interest.to_sparse().into();
        for kind in [SchedulerKind::Inc, SchedulerKind::HorI, SchedulerKind::Lazy] {
            assert_bit_identical(kind, &sparse, k, "sparse");
        }
    }
}

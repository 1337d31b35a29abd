//! The differential layer behind the parallel execution paths: **every
//! scheduler, on every dataset, is bit-identical across thread counts.**
//!
//! The parallel engine (fixed-block user sweeps), the parallel candidate
//! generation in ALG/HOR, and the thread-count plumbing may only change
//! wall-clock time — never a schedule, a utility bit, or a counter. Each
//! case runs the sequential reference first and then re-runs at 2 and 8
//! threads, comparing:
//!
//! * the full assignment sequence (exact equality — selection *order*, not
//!   just the set),
//! * the utility down to the last mantissa bit (`f64::to_bits`),
//! * the complete [`Stats`] record (score computations, user ops,
//!   assignments examined, selections, updates).
//!
//! User counts are chosen to exceed the engine's 512-entry reduction block
//! (dense columns span ≥ 2 blocks), so the parallel summation path really
//! executes rather than degenerating to the single-block fast path.

use social_event_scheduling::algorithms::{Scheduler, SchedulerKind};
use social_event_scheduling::core::model::StorageKind;
use social_event_scheduling::core::parallel::{Threads, PAR_BLOCK};
use social_event_scheduling::datasets::Dataset;
use social_event_scheduling::Instance;

/// Thread counts compared against the sequential reference.
const THREAD_COUNTS: [usize; 2] = [2, 8];

/// Enough users for ≥ 2 reduction blocks per dense column.
const USERS: usize = 2 * PAR_BLOCK + 307;

fn assert_bit_identical(kind: SchedulerKind, inst: &Instance, k: usize, label: &str) {
    let seq = kind.run_threaded(inst, k, Threads::sequential());
    for &n in &THREAD_COUNTS {
        let par = kind.run_threaded(inst, k, Threads::new(n));
        assert_eq!(
            seq.schedule.assignments(),
            par.schedule.assignments(),
            "{label}/{}/t{n}: schedule diverged",
            kind.name()
        );
        assert_eq!(
            seq.utility.to_bits(),
            par.utility.to_bits(),
            "{label}/{}/t{n}: utility bits diverged ({} vs {})",
            kind.name(),
            seq.utility,
            par.utility
        );
        assert_eq!(seq.stats, par.stats, "{label}/{}/t{n}: stats diverged", kind.name());
    }
}

/// The Table-1 shape regimes each dataset is exercised in: one single-round
/// configuration (`k ≤ |T|` — HOR-I ≡ HOR, zero updates) and one
/// multi-round (`k > |T|` — every incremental scheme does update work).
const SHAPES: [(usize, usize, usize); 2] = [
    // (k, |E|, |T|)
    (8, 40, 12),
    (12, 30, 5),
];

#[test]
fn all_schedulers_bit_identical_across_thread_counts() {
    // `SchedulerKind::ALL` is the canonical scheduler table; this test
    // takes every kind except EXACT (covered on a tractable shape below)
    // and the aux/extension schedulers (covered on one instance below).
    let kinds: Vec<SchedulerKind> = SchedulerKind::ALL
        .into_iter()
        .filter(|k| {
            !matches!(
                k,
                SchedulerKind::Exact
                    | SchedulerKind::Lazy
                    | SchedulerKind::RefinedHor
                    | SchedulerKind::Rand(_)
            )
        })
        .collect();
    assert_eq!(kinds.len(), 5, "registry lost a paper scheduler");
    for dataset in Dataset::ALL {
        for (i, &(k, events, intervals)) in SHAPES.iter().enumerate() {
            let inst = dataset.build(USERS, events, intervals, 0x9A8 + i as u64);
            let label = format!("{}#{i}", dataset.name());
            for &kind in &kinds {
                assert_bit_identical(kind, &inst, k, &label);
            }
        }
    }
}

/// The sparse interest layout drives the positional (non-zero-list) variant
/// of the blocked reduction; a dense uniform matrix converted to sparse has
/// full columns, so every column spans multiple blocks here too.
#[test]
fn sparse_layout_bit_identical_across_thread_counts() {
    let dense = Dataset::Unf.build(USERS, 30, 8, 0x5AE);
    let mut sparse = dense.clone();
    sparse.event_interest = dense.event_interest.to_sparse().into();
    sparse.competing_interest = dense.competing_interest.to_sparse().into();
    for kind in [SchedulerKind::Alg, SchedulerKind::Inc, SchedulerKind::Hor, SchedulerKind::HorI] {
        assert_bit_identical(kind, &sparse, 10, "Unf-sparse");
    }
}

/// The compressed (dictionary-encoded columnar) layout drives the
/// code-resolving variant of the blocked reduction. The quantized rebuild
/// keeps the dictionary small the way real compressed instances do, and
/// the layout must stay bit-identical to itself across thread counts *and*
/// to the dense run of the same matrix at every count.
#[test]
fn compressed_layout_bit_identical_across_thread_counts() {
    let dense = Dataset::Unf.build(USERS, 30, 8, 0x5AE);
    let mut compressed = dense.clone();
    compressed.event_interest = dense.event_interest.convert_to(StorageKind::Compressed);
    compressed.competing_interest = dense.competing_interest.convert_to(StorageKind::Compressed);
    for kind in [SchedulerKind::Alg, SchedulerKind::Inc, SchedulerKind::Hor, SchedulerKind::HorI] {
        assert_bit_identical(kind, &compressed, 10, "Unf-compressed");
        // Cross-backend: the compressed run must match the dense run bit
        // for bit at every thread count, not merely be self-consistent.
        for &n in &[1usize, 2, 8] {
            let d = kind.run_threaded(&dense, 10, Threads::new(n));
            let c = kind.run_threaded(&compressed, 10, Threads::new(n));
            assert_eq!(d.schedule.assignments(), c.schedule.assignments(), "{}/t{n}", kind.name());
            assert_eq!(d.utility.to_bits(), c.utility.to_bits(), "{}/t{n}", kind.name());
            assert_eq!(d.stats, c.stats, "{}/t{n}", kind.name());
        }
    }
}

/// EXACT backtracks over apply/unapply cycles — the residue-snapping path —
/// so its equivalence additionally proves the parallel engine's mass
/// updates round-trip identically. Tiny event count keeps the search tree
/// tractable at full user scale.
#[test]
fn exact_solver_bit_identical_across_thread_counts() {
    let inst = Dataset::Zip.build(USERS, 6, 2, 0xE8A);
    assert_bit_identical(SchedulerKind::Exact, &inst, 3, "Zip-tiny");
}

/// The ablation/extension schedulers ride the same engine; keep them honest
/// on one dense multi-round instance.
#[test]
fn auxiliary_schedulers_bit_identical_across_thread_counts() {
    let inst = Dataset::Concerts.build(USERS, 30, 5, 0xAB5);
    for kind in [SchedulerKind::Lazy, SchedulerKind::RefinedHor, SchedulerKind::Rand(7)] {
        assert_bit_identical(kind, &inst, 12, "Concerts-aux");
    }
}

/// `Threads::new(0)` (machine width) and the `SES_THREADS` default path go
/// through the same resolution; whatever they resolve to must also match
/// the sequential reference.
#[test]
fn auto_width_matches_sequential() {
    let inst = Dataset::Unf.build(USERS, 25, 6, 0xA07);
    let seq = SchedulerKind::Hor.run_threaded(&inst, 9, Threads::sequential());
    let auto = SchedulerKind::Hor.run_threaded(&inst, 9, Threads::new(0));
    assert_eq!(seq.schedule.assignments(), auto.schedule.assignments());
    assert_eq!(seq.utility.to_bits(), auto.utility.to_bits());
    assert_eq!(seq.stats, auto.stats);
}

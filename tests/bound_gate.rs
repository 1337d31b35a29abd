//! The bound-first gate's contract, enforced differentially:
//!
//! 1. **Selection-neutral.** A gated run produces the *exact* schedule and
//!    utility bits of the ungated reference — the gate may only change how
//!    many stale candidates pay for a full refresh sweep. This doubles as
//!    the skip-soundness proof: if the gate ever skipped a candidate that
//!    would have been selected, the schedules would diverge.
//! 2. **Effective.** Across the probed workloads the skip counter actually
//!    fires (a sound gate that never skips is dead weight), including on
//!    the fig-10b search-space workload (Meetup, INC).
//! 3. **Deterministic.** Gated runs stay bit-identical across thread
//!    counts — the bound is computed from thread-invariant caches.

use social_event_scheduling::algorithms::stream::StreamScheduler;
use social_event_scheduling::algorithms::{RunConfig, Scheduler, SchedulerKind, Scratch};
use social_event_scheduling::core::delta;
use social_event_scheduling::core::parallel::Threads;
use social_event_scheduling::datasets::ops::{self, OpStreamParams};
use social_event_scheduling::datasets::Dataset;
use social_event_scheduling::Instance;

/// The gated schedulers (ALG refreshes eagerly by design; TOP/RAND never
/// refresh).
const GATED: [SchedulerKind; 3] = [SchedulerKind::Inc, SchedulerKind::HorI, SchedulerKind::Lazy];

fn run(
    kind: SchedulerKind,
    inst: &Instance,
    k: usize,
    gate: bool,
    threads: usize,
) -> social_event_scheduling::algorithms::ScheduleResult {
    let cfg = RunConfig::threaded(Threads::new(threads)).with_bound_gate(gate);
    kind.run_configured(inst, k, cfg, &mut Scratch::new())
}

/// Gate on ≡ gate off, for every gated scheduler on every dataset, in both
/// the single-round and the multi-round regime — and the gate fires
/// somewhere in the matrix.
#[test]
fn gate_is_selection_neutral_and_fires() {
    let mut total_skips = 0u64;
    let (mut sweeps_plain, mut sweeps_gated) = (0u64, 0u64);
    for dataset in Dataset::ALL {
        for (i, &(k, events, intervals)) in
            [(8usize, 40usize, 12usize), (12, 30, 5)].iter().enumerate()
        {
            let inst = dataset.build(150, events, intervals, 0x6A7E + i as u64);
            for kind in GATED {
                let plain = run(kind, &inst, k, false, 1);
                let gated = run(kind, &inst, k, true, 1);
                assert_eq!(
                    plain.schedule.assignments(),
                    gated.schedule.assignments(),
                    "{}/{}#{i}: gate changed the schedule",
                    dataset.name(),
                    kind.name()
                );
                assert_eq!(
                    plain.utility.to_bits(),
                    gated.utility.to_bits(),
                    "{}/{}#{i}: gate changed utility bits",
                    dataset.name(),
                    kind.name()
                );
                assert_eq!(plain.stats.bound_skips, 0, "gate off must record no skips");
                assert!(
                    gated.stats.bound_skips > 0,
                    "{}/{}#{i}: gate-on runs must seed candidates with bounds",
                    dataset.name(),
                    kind.name()
                );
                sweeps_plain += plain.stats.score_computations;
                sweeps_gated += gated.stats.score_computations;
                total_skips += gated.stats.bound_skips;
            }
        }
    }
    assert!(total_skips > 0, "the gate never fired across the whole matrix");
    // The point of the gate: fewer full sweeps overall (seeds are
    // O(duration); only candidates whose bound survives Φ pay for a user
    // sweep). Dense single-round cases can tie — the matrix must not.
    assert!(
        sweeps_gated < sweeps_plain,
        "gate saved no sweeps across the matrix ({sweeps_gated} !< {sweeps_plain})"
    );
}

/// The fig-10b search-space workload (Meetup, ALG-vs-INC shape): gated INC
/// records a non-zero skip count while reproducing the ungated result
/// exactly.
#[test]
fn fig10b_workload_records_bound_skips() {
    let inst = Dataset::Meetup.build(100, 60, 12, 2);
    let k = 24;
    let plain = run(SchedulerKind::Inc, &inst, k, false, 1);
    let gated = run(SchedulerKind::Inc, &inst, k, true, 1);
    assert_eq!(plain.schedule.assignments(), gated.schedule.assignments());
    assert_eq!(plain.utility.to_bits(), gated.utility.to_bits());
    assert!(
        gated.stats.bound_skips > 0,
        "fig-10b workload must exercise the gate (skips = {})",
        gated.stats.bound_skips
    );
    assert!(
        gated.stats.user_ops < plain.stats.user_ops,
        "skips must translate into saved user sweeps ({} !< {})",
        gated.stats.user_ops,
        plain.stats.user_ops
    );
}

/// Gated runs are bit-identical across thread counts, `bound_skips`
/// included (the bound reads only thread-invariant caches).
#[test]
fn gated_runs_bit_identical_across_threads() {
    let inst = Dataset::Zip.build(2 * 512 + 307, 30, 5, 0x9A9);
    for kind in GATED {
        let seq = run(kind, &inst, 12, true, 1);
        for n in [2usize, 8] {
            let par = run(kind, &inst, 12, true, n);
            assert_eq!(seq.schedule.assignments(), par.schedule.assignments(), "{}", kind.name());
            assert_eq!(seq.utility.to_bits(), par.utility.to_bits(), "{}", kind.name());
            assert_eq!(seq.stats, par.stats, "{}: stats (incl. skips) diverged", kind.name());
        }
    }
}

/// The stream repairer with the gate on repairs to the same schedules and
/// utilities as the ungated repairer, op for op.
#[test]
fn stream_gate_is_repair_neutral() {
    let base = Dataset::Unf.build(60, 16, 5, 0xD16);
    let params =
        OpStreamParams::default().with_ops(60).with_churn(0.5).with_user_churn(0.4).with_seed(11);
    let stream_ops = ops::generate(&base, &params);
    let (mut plain_inst, mut gated_inst) = (base.clone(), base.clone());
    let mut plain = StreamScheduler::new(&plain_inst, 6, Threads::sequential());
    let mut gated =
        StreamScheduler::new(&gated_inst, 6, Threads::sequential()).with_bound_gate(true);
    let mut mat = base;
    let mut skips = 0u64;
    for (i, op) in stream_ops.iter().enumerate() {
        delta::apply(&mut mat, op).unwrap();
        let rp = plain.apply(&mut plain_inst, op).unwrap().clone();
        let rg = gated.apply(&mut gated_inst, op).unwrap().clone();
        assert_eq!(
            plain.schedule().assignments(),
            gated.schedule().assignments(),
            "op {i} ({}): gated repair diverged",
            op.kind()
        );
        assert_eq!(plain.utility().to_bits(), gated.utility().to_bits(), "op {i}");
        assert_eq!(rp.stats.bound_skips, 0);
        skips += rg.stats.bound_skips;
    }
    assert!(skips > 0, "the gate never fired across the op stream");
}

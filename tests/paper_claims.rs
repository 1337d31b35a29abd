//! The paper's cross-cutting claims, verified on all four (simulated)
//! datasets at integration scale.

use social_event_scheduling::algorithms::{Scheduler, SchedulerKind};
use social_event_scheduling::core::scoring::utility::total_utility;
use social_event_scheduling::datasets::Dataset;

const USERS: usize = 120;

/// Proposition 3 + Proposition 6 on every dataset, both k ≤ |T| and
/// k > |T| regimes.
#[test]
fn pairwise_equivalences_all_datasets() {
    for dataset in Dataset::ALL {
        for (k, events, intervals) in [(12usize, 60usize, 20usize), (25, 80, 8)] {
            let inst = dataset.build(USERS, events, intervals, 0xC1A1);
            let alg = SchedulerKind::Alg.run(&inst, k);
            let inc = SchedulerKind::Inc.run(&inst, k);
            let hor = SchedulerKind::Hor.run(&inst, k);
            let hor_i = SchedulerKind::HorI.run(&inst, k);
            assert_eq!(
                alg.schedule.assignments(),
                inc.schedule.assignments(),
                "Prop 3 on {} (k={k})",
                dataset.name()
            );
            assert_eq!(
                hor.schedule.assignments(),
                hor_i.schedule.assignments(),
                "Prop 6 on {} (k={k})",
                dataset.name()
            );
        }
    }
}

/// §1/§4: the proposed methods perform roughly half of ALG's computations
/// or less in bound-friendly settings — verified loosely: INC, HOR, HOR-I
/// all strictly below ALG, and HOR-I ≤ 75% of ALG on the skewed dataset.
#[test]
fn computation_reduction_claim() {
    let inst = Dataset::Zip.build(USERS, 150, 20, 0xFEE1);
    let k = 40; // k > |T|: updates happen for every method
    let alg = SchedulerKind::Alg.run(&inst, k);
    for kind in [SchedulerKind::Inc, SchedulerKind::Hor, SchedulerKind::HorI] {
        let res = kind.run(&inst, k);
        assert!(
            res.stats.user_ops < alg.stats.user_ops,
            "{} must beat ALG: {} vs {}",
            kind.name(),
            res.stats.user_ops,
            alg.stats.user_ops
        );
    }
    let hor_i = SchedulerKind::HorI.run(&inst, k);
    let ratio = hor_i.stats.user_ops as f64 / alg.stats.user_ops as f64;
    assert!(ratio < 0.75, "HOR-I/ALG computation ratio {ratio:.2} not < 0.75");
}

/// §4.2.1: TOP reports considerably lower utility than the greedy methods
/// because it piles events into few intervals.
#[test]
fn top_quality_is_poor() {
    for dataset in Dataset::ALL {
        let inst = dataset.build(USERS, 100, 12, 0x70F);
        let k = 24;
        let alg = SchedulerKind::Alg.run(&inst, k);
        let top = SchedulerKind::Top.run(&inst, k);
        assert!(
            top.utility < 0.95 * alg.utility,
            "{}: TOP {} suspiciously close to ALG {}",
            dataset.name(),
            top.utility,
            alg.utility
        );
        // TOP's defining behaviour: it concentrates events in few intervals.
        let top_used: std::collections::HashSet<_> =
            top.schedule.assignments().iter().map(|a| a.interval).collect();
        let alg_used: std::collections::HashSet<_> =
            alg.schedule.assignments().iter().map(|a| a.interval).collect();
        assert!(top_used.len() <= alg_used.len(), "{}: TOP spread wider than ALG", dataset.name());
    }
}

/// Every method's reported utility equals the from-scratch Eq. 1–3
/// evaluation — across datasets, including the sparse (Meetup) layout.
#[test]
fn reported_utilities_are_exact() {
    for dataset in Dataset::ALL {
        let inst = dataset.build(USERS, 80, 10, 0xACC);
        for kind in SchedulerKind::paper_lineup() {
            let res = kind.run(&inst, 16);
            let omega = total_utility(&inst, &res.schedule);
            assert!(
                (res.utility - omega).abs() < 1e-9,
                "{} on {}: {} vs {}",
                kind.name(),
                dataset.name(),
                res.utility,
                omega
            );
        }
    }
}

/// Determinism: every scheduler is reproducible run-to-run (same seed for
/// RAND), which is what makes the whole experiment suite reproducible.
#[test]
fn schedulers_are_deterministic() {
    let inst = Dataset::Concerts.build(USERS, 60, 8, 0xD7);
    for kind in SchedulerKind::paper_lineup() {
        let a = kind.run(&inst, 10);
        let b = kind.run(&inst, 10);
        assert_eq!(a.schedule, b.schedule, "{}", kind.name());
        assert_eq!(a.stats, b.stats, "{} stats drifted", kind.name());
    }
}

/// Regression pin for the EXPERIMENTS.md §4.2.8 open item: at laptop scale
/// HOR's horizontal policy costs real utility versus INC (measured ratio
/// 0.9121 on this seeded 400-user Unf instance — far from the paper's
/// 0.008% mean gap at 100K users). Until that investigation lands, this
/// test freezes the gap: HOR must stay within the recorded ratio of INC,
/// and must never exceed it (INC is exact greedy). If this fails after an
/// algorithm change, the known quality gap has silently widened — do not
/// loosen the floor without updating the EXPERIMENTS.md open item.
#[test]
fn hor_quality_gap_does_not_widen() {
    let inst = Dataset::Unf.build(400, 100, 30, 0x5E5);
    let k = 20;
    let inc = SchedulerKind::Inc.run(&inst, k);
    let hor = SchedulerKind::Hor.run(&inst, k);
    let ratio = hor.utility / inc.utility;
    assert!(ratio <= 1.0 + 1e-9, "HOR beat exact greedy: ratio {ratio:.6}");
    assert!(
        ratio >= 0.90,
        "HOR/INC utility ratio {ratio:.6} fell below the recorded 0.9121 floor \
         (the §4.2.8 quality gap widened)"
    );
}

/// Utility monotonicity in k: asking for more events never lowers the
/// greedy utility (each added assignment has non-negative marginal gain).
#[test]
fn utility_monotone_in_k() {
    let inst = Dataset::Zip.build(USERS, 60, 10, 0x111);
    let mut last = 0.0;
    for k in [2usize, 5, 10, 20, 40] {
        let res = SchedulerKind::Alg.run(&inst, k);
        assert!(
            res.utility >= last - 1e-9,
            "utility dropped going to k = {k}: {last} -> {}",
            res.utility
        );
        last = res.utility;
    }
}

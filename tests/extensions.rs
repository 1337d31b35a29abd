//! End-to-end tests of the §2.1 extensions ("trivial modifications" per the
//! paper) through the full algorithm stack: event durations, user weights,
//! and the profit-oriented objective.

use social_event_scheduling::algorithms::prelude::*;
use social_event_scheduling::core::model::running_example;
use social_event_scheduling::core::scoring::utility::{total_profit, total_utility};
use social_event_scheduling::datasets::Dataset;
use social_event_scheduling::{EventId, IntervalId};

/// Durations: a 2-slot headliner must occupy consecutive slots everywhere it
/// is scheduled, every algorithm keeps Prop-3/6 equivalence, and scores stay
/// consistent with the evaluator.
#[test]
fn durations_through_all_algorithms() {
    let mut inst = Dataset::Zip.build(80, 30, 6, 0xD0);
    inst.events[0].duration = 2; // headliner spans two slots
    inst.events[1].duration = 3;

    for k in [3usize, 6, 12] {
        let alg = Alg.run(&inst, k);
        let inc = Inc.run(&inst, k);
        let lazy = LazyGreedy.run(&inst, k);
        let hor = Hor.run(&inst, k);
        let hor_i = HorI.run(&inst, k);

        assert_eq!(alg.schedule.assignments(), inc.schedule.assignments(), "k={k}");
        assert_eq!(alg.schedule.assignments(), lazy.schedule.assignments(), "k={k}");
        assert_eq!(hor.schedule.assignments(), hor_i.schedule.assignments(), "k={k}");

        // Free events at one unit of revenue per attendee make profit the
        // attendance gain itself, so PROFIT must select exactly as ALG —
        // spanning events included.
        let mut free = inst.clone();
        for e in &mut free.events {
            e.cost = 0.0;
        }
        let profit =
            ProfitGreedy { revenue_per_attendee: 1.0, stop_when_unprofitable: false }.run(&free, k);
        let alg_free = Alg.run(&free, k);
        assert_eq!(profit.schedule.assignments(), alg_free.schedule.assignments(), "k={k}");
        assert_eq!(profit.utility.to_bits(), alg_free.utility.to_bits(), "k={k}");

        for res in [&alg, &hor] {
            assert!(res.schedule.verify_feasible(&inst).is_ok());
            let omega = total_utility(&inst, &res.schedule);
            assert!((res.utility - omega).abs() < 1e-9, "{} k={k}", res.algorithm);
            // Spanning events occupy every slot of their span.
            for &(e, d) in &[(0usize, 2usize), (1, 3)] {
                if let Some(t) = res.schedule.interval_of(EventId::new(e)) {
                    assert!(t.index() + d <= inst.num_intervals(), "span off calendar");
                    for ti in t.index()..t.index() + d {
                        assert!(
                            res.schedule.events_at(IntervalId::new(ti)).contains(&EventId::new(e)),
                            "event {e} missing from spanned slot {ti}"
                        );
                    }
                }
            }
        }
    }
}

/// A duration longer than the calendar makes the event unschedulable without
/// breaking anything else.
#[test]
fn oversized_duration_is_just_skipped() {
    let mut inst = running_example();
    inst.events[3].duration = 5; // only 2 intervals exist
    let res = Alg.run(&inst, 4);
    assert!(!res.schedule.is_scheduled(EventId::new(3)));
    assert_eq!(res.schedule.len(), 3); // the other three still fit
    assert!(res.schedule.verify_feasible(&inst).is_ok());
}

/// User weights: boosting a user's weight pulls the schedule toward the
/// events that user likes.
#[test]
fn weights_steer_the_schedule() {
    let inst = running_example();
    // Baseline with k = 2: e4@t2 and e1@t1 (highest scores).
    let base = Alg.run(&inst, 2);
    assert!(base.schedule.is_scheduled(EventId::new(0)));

    // Make user u2 (who loves e2 with 0.6 but e1 with only 0.2) dominate.
    let mut weighted = inst.clone();
    weighted.user_weights = Some(vec![0.1, 10.0]);
    let steered = Alg.run(&weighted, 2);
    assert!(
        steered.schedule.is_scheduled(EventId::new(1)),
        "u2's weight should drag e2 into the schedule: {:?}",
        steered.schedule.assignments()
    );
}

/// Profit objective interacts with durations and weights: the full extension
/// stack composes.
#[test]
fn profit_composes_with_other_extensions() {
    let mut inst = Dataset::Concerts.build(60, 20, 5, 0xF00D);
    inst.user_weights = Some(vec![1.0; 60]);
    inst.events[2].duration = 2;
    for e in &mut inst.events {
        e.cost = 0.5;
    }
    let res =
        ProfitGreedy { revenue_per_attendee: 1.0, stop_when_unprofitable: true }.run(&inst, 8);
    assert!(res.schedule.verify_feasible(&inst).is_ok());
    let profit = total_profit(&inst, &res.schedule, 1.0);
    // Every selected event cleared its marginal cost at selection time, so
    // total profit is positive (margins only shrink via later co-selections
    // in *other* intervals, which don't affect these).
    assert!(profit > 0.0, "profit {profit}");
}

/// Local search respects durations: refined schedules stay feasible and not
/// worse.
#[test]
fn refinement_respects_durations() {
    let mut inst = Dataset::Unf.build(60, 24, 6, 0xD2);
    inst.events[0].duration = 2;
    inst.events[5].duration = 2;
    let base = Hor.run(&inst, 8);
    let mut schedule = base.schedule.clone();
    let (gain, _) = LocalSearch::default().refine(&inst, &mut schedule);
    assert!(gain >= -1e-9);
    assert!(schedule.verify_feasible(&inst).is_ok());
    assert!(total_utility(&inst, &schedule) >= base.utility - 1e-9);
}

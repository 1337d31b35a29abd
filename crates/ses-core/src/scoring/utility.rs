//! From-scratch evaluation of Eq. 1–3: attendance probabilities, expected
//! attendance, and total utility Ω(S).
//!
//! This module deliberately shares no state with [`ScoringEngine`]; it is the
//! independent reference implementation used to cross-validate the engine
//! (total utility must equal the telescoped sum of selected assignment
//! scores) and to report final utilities.
//!
//! Ω(S) is evaluated by one **interval-major pass**: for each interval that
//! holds a scheduled event, one reused `|U|` buffer receives every user's
//! Luce denominator (the competing columns, then the co-scheduled event
//! columns, each walked with [`InterestMatrix::for_each`]), and each event
//! at that interval then walks its own column once against the buffer. The
//! pass adds the same terms in the same order as the per-user definition
//! ([`attendance_probability`]) summed user by user, minus terms that are
//! exactly `+0.0`, so its results are bit-equal to it.
//!
//! [`ScoringEngine`]: crate::scoring::ScoringEngine
//! [`InterestMatrix::for_each`]: crate::model::InterestMatrix::for_each

use crate::ids::{EventId, IntervalId};
use crate::model::Instance;
use crate::schedule::Schedule;

/// The Luce denominator for user `u` at interval `t` under schedule `s`:
/// `Σ_{c ∈ C_t} µ(u,c) + Σ_{p ∈ E_t(S)} µ(u,p)`.
fn luce_denominator(inst: &Instance, s: &Schedule, user: usize, t: IntervalId) -> f64 {
    let mut d = 0.0;
    for c in inst.competing_at(t) {
        d += inst.competing_interest.value(c.index(), user);
    }
    for &p in s.events_at(t) {
        d += inst.event_interest.value(p.index(), user);
    }
    d
}

/// Eq. 1 from its parts: `σ · µ / denom`, or 0 when nothing is on offer.
#[inline]
fn luce_share(sigma: f64, mu: f64, denom: f64) -> f64 {
    if denom <= 0.0 {
        return 0.0;
    }
    sigma * mu / denom
}

/// Probability `ρ_{u,e}^t` (Eq. 1) that user `u` attends event `e` during
/// interval `t`, given the events scheduled alongside it.
///
/// Returns 0 when the denominator is empty (nothing on offer).
///
/// # Panics
/// Panics (debug) if `e` is not actually occupying `t` under `s`.
pub fn attendance_probability(
    inst: &Instance,
    s: &Schedule,
    user: usize,
    e: EventId,
    t: IntervalId,
) -> f64 {
    debug_assert!(s.events_at(t).contains(&e), "ρ is defined for events scheduled at the interval");
    luce_share(
        inst.activity.value(user, t.index()),
        inst.event_interest.value(e.index(), user),
        luce_denominator(inst, s, user, t),
    )
}

/// Expected attendance `ω_e` (Eq. 2) of every event, indexed by event id
/// (0 for unscheduled events): the interval-major pass of the module docs.
///
/// Per user, a denominator adds the competing and then the co-scheduled
/// columns in [`luce_denominator`]'s order; per event, the terms add in
/// ascending interval and then ascending user order, as
/// [`attendance_probability`] summed user by user would. A user a column
/// walk skips has `µ = 0` there: it would add `+0.0` to a denominator, or
/// `w · 0 = +0.0` to an event's total, and neither sum is ever `-0.0`, so
/// skipping it changes no bit. Scratch is one `|U|` buffer plus the `|E|`
/// totals.
fn attendance_by_event(inst: &Instance, s: &Schedule) -> Vec<f64> {
    let mut totals = vec![0.0; inst.num_events()];
    let mut denom = vec![0.0; inst.num_users()];
    for ti in 0..inst.num_intervals() {
        let t = IntervalId::new(ti);
        let events = s.events_at(t);
        if events.is_empty() {
            continue;
        }
        denom.fill(0.0);
        for c in inst.competing_at(t) {
            inst.competing_interest.for_each(c.index(), |u, mu| denom[u] += mu);
        }
        for &p in events {
            inst.event_interest.for_each(p.index(), |u, mu| denom[u] += mu);
        }
        for &e in events {
            let total = &mut totals[e.index()];
            inst.event_interest.for_each(e.index(), |u, mu| {
                *total +=
                    inst.user_weight(u) * luce_share(inst.activity.value(u, ti), mu, denom[u]);
            });
        }
    }
    totals
}

/// Expected attendance `ω_e^t` (Eq. 2) of scheduled event `e`, summed over
/// all users (weighted if user weights are configured) and over every
/// interval the event spans.
///
/// Returns 0 if `e` is not scheduled by `s`.
pub fn expected_attendance(inst: &Instance, s: &Schedule, e: EventId) -> f64 {
    attendance_by_event(inst, s)[e.index()]
}

/// Total utility `Ω(S)` (Eq. 3): expected attendance summed over all
/// scheduled events, in assignment order.
pub fn total_utility(inst: &Instance, s: &Schedule) -> f64 {
    let omega = attendance_by_event(inst, s);
    s.assignments().iter().map(|a| omega[a.event.index()]).sum()
}

/// Profit-oriented utility (the §2.1 "profit-oriented SES" extension):
/// `Σ_e (ω_e · revenue_per_attendee − cost_e)` over scheduled events, in
/// assignment order.
pub fn total_profit(inst: &Instance, s: &Schedule, revenue_per_attendee: f64) -> f64 {
    let omega = attendance_by_event(inst, s);
    s.assignments()
        .iter()
        .map(|a| omega[a.event.index()] * revenue_per_attendee - inst.events[a.event.index()].cost)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::running_example;
    use crate::scoring::ScoringEngine;

    fn paper_schedule(inst: &Instance) -> Schedule {
        // Examples 2–5: {e4@t2, e1@t1, e2@t2}.
        let mut s = Schedule::new(inst);
        s.assign(inst, EventId::new(3), IntervalId::new(1)).unwrap();
        s.assign(inst, EventId::new(0), IntervalId::new(0)).unwrap();
        s.assign(inst, EventId::new(1), IntervalId::new(1)).unwrap();
        s
    }

    #[test]
    fn running_example_total_utility() {
        let inst = running_example();
        let s = paper_schedule(&inst);
        // 0.6564 (e4 selection) + 0.5902 (e1) + 0.1607 (e2), hand-computed.
        let omega = total_utility(&inst, &s);
        assert!((omega - 1.4073).abs() < 5e-4, "Ω = {omega}");
    }

    #[test]
    fn expected_attendance_of_unscheduled_event_is_zero() {
        let inst = running_example();
        let s = Schedule::new(&inst);
        assert_eq!(expected_attendance(&inst, &s, EventId::new(0)), 0.0);
    }

    #[test]
    fn attendance_probability_matches_hand_computation() {
        let inst = running_example();
        let mut s = Schedule::new(&inst);
        s.assign(&inst, EventId::new(0), IntervalId::new(0)).unwrap();
        // u1 at t1: σ = 0.8, µ(e1) = 0.9, C = µ(c1) = 0.8.
        let rho = attendance_probability(&inst, &s, 0, EventId::new(0), IntervalId::new(0));
        assert!((rho - 0.8 * 0.9 / 1.7).abs() < 1e-12);
    }

    /// Eq. 4 telescopes: Ω(S) equals the sum of each selected assignment's
    /// score *at selection time*. This ties the incremental engine to the
    /// from-scratch evaluator.
    #[test]
    fn utility_telescopes_from_assignment_scores() {
        let inst = running_example();
        let mut eng = ScoringEngine::new(&inst);
        let picks = [(3usize, 1usize), (0, 0), (1, 1)];
        let mut sum = 0.0;
        let mut s = Schedule::new(&inst);
        for (e, t) in picks {
            sum += eng.assignment_score(EventId::new(e), IntervalId::new(t));
            eng.apply(EventId::new(e), IntervalId::new(t));
            s.assign(&inst, EventId::new(e), IntervalId::new(t)).unwrap();
        }
        let omega = total_utility(&inst, &s);
        assert!((omega - sum).abs() < 1e-9, "telescoping: Ω = {omega}, Σ scores = {sum}");
    }

    #[test]
    fn profit_subtracts_costs() {
        let mut inst = running_example();
        inst.events[3].cost = 0.5;
        let s = paper_schedule(&inst);
        let omega = total_utility(&inst, &s);
        let profit = total_profit(&inst, &s, 1.0);
        assert!((profit - (omega - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn weights_scale_utility() {
        let mut inst = running_example();
        let s = paper_schedule(&inst);
        let base = total_utility(&inst, &s);
        inst.user_weights = Some(vec![3.0, 3.0]);
        let s2 = paper_schedule(&inst);
        let weighted = total_utility(&inst, &s2);
        assert!((weighted - 3.0 * base).abs() < 1e-9);
    }

    #[test]
    fn empty_schedule_zero_utility() {
        let inst = running_example();
        assert_eq!(total_utility(&inst, &Schedule::new(&inst)), 0.0);
    }
}

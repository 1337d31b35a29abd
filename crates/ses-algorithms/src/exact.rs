//! Exact branch-and-bound solver for *tiny* SES instances.
//!
//! SES is strongly NP-hard and APX-hard (Theorem 1), so no exact solver can
//! scale; this one exists as a **test oracle**: on instances with a handful
//! of events it certifies the optimal utility, letting tests verify that
//! (a) greedy utilities never exceed the optimum and (b) the greedy gap is
//! sane on known-bad cases.
//!
//! The search enumerates events in id order; each event is either skipped or
//! assigned to one of its feasible intervals. Pruning uses the telescoping
//! property of Eq. 4 plus score monotonicity: the marginal gain of any future
//! assignment is at most that event's best *initial* score, so
//! `current + Σ (top remaining initial bounds) ≤ incumbent` prunes the
//! subtree.
//!
//! ## Constraints
//!
//! Scenario constraints (`ses_core::constraints`) are enforced through the
//! same `is_valid_assignment` gate every scheduler uses, and the search stays
//! **complete** over the constrained space because all three rule families
//! are downward-closed and order-independent: every prefix of a feasible
//! schedule is feasible, so id-order skip-or-assign enumeration still visits
//! every feasible schedule. `optimistic_remaining` stays a sound bound —
//! constraints only *remove* options, never increase a gain. On top of
//! that, the search prunes constraint-specific dead branches: when an
//! already-scheduled conflict partner rules an event out entirely, all `|T|`
//! assign branches are skipped in one check instead of failing one by one.

use crate::common::{run_with_engine, RunConfig, ScheduleResult, Scheduler, Scratch};
use ses_core::model::Instance;
use ses_core::schedule::Schedule;
use ses_core::scoring::ScoringEngine;
use ses_core::{EventId, IntervalId};

/// Exact solver; see module docs. Practical only for roughly
/// `|E| ≤ 10, |T| ≤ 4`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact;

impl Scheduler for Exact {
    fn name(&self) -> &'static str {
        "EXACT"
    }

    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        _scratch: &mut Scratch,
    ) -> ScheduleResult {
        run_with_engine(self.name(), inst, k, cfg, |engine| run_exact(engine, k))
    }
}

struct Search<'e, 'a> {
    inst: &'a Instance,
    k: usize,
    engine: &'e mut ScoringEngine<'a>,
    schedule: Schedule,
    /// Per event: its best initial score (an upper bound on any future
    /// marginal gain, by monotonicity), sorted copies used for bounding.
    event_bound: Vec<f64>,
    best_utility: f64,
    best_schedule: Schedule,
}

impl Search<'_, '_> {
    /// Whether a scheduled conflict partner makes `event` unassignable at
    /// every interval. Sound to skip the whole assign loop: conflicts are
    /// interval-independent, so one scheduled partner kills all branches.
    fn conflict_blocked(&self, event: EventId) -> bool {
        self.inst.constraints.conflicts().iter().any(|p| {
            (p.a == event && self.schedule.is_scheduled(p.b))
                || (p.b == event && self.schedule.is_scheduled(p.a))
        })
    }

    /// Upper bound on the extra utility attainable from events `from..`.
    fn optimistic_remaining(&self, from: usize) -> f64 {
        let slots = self.k - self.schedule.len();
        let mut bounds: Vec<f64> = self.event_bound[from..].to_vec();
        bounds.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite"));
        bounds.into_iter().take(slots).sum()
    }

    fn dfs(&mut self, next_event: usize, current_utility: f64) {
        if current_utility > self.best_utility {
            self.best_utility = current_utility;
            self.best_schedule = self.schedule.clone();
        }
        if self.schedule.len() == self.k || next_event == self.inst.num_events() {
            return;
        }
        if current_utility + self.optimistic_remaining(next_event) <= self.best_utility {
            return; // cannot improve
        }

        let event = EventId::new(next_event);
        // Branch 1: assign `event` to each feasible interval — unless a
        // scheduled conflict partner rules the event out at *every*
        // interval, in which case all |T| branches die in one check.
        if !self.conflict_blocked(event) {
            for t in 0..self.inst.num_intervals() {
                let interval = IntervalId::new(t);
                if !self.schedule.is_valid_assignment(self.inst, event, interval) {
                    continue;
                }
                let gain = self.engine.assignment_score(event, interval);
                self.schedule.assign(self.inst, event, interval).expect("checked valid");
                self.engine.apply(event, interval);
                self.dfs(next_event + 1, current_utility + gain);
                self.engine.unapply(event, interval);
                self.schedule.unassign(self.inst, event).expect("just assigned");
            }
        }
        // Branch 2: skip `event`.
        self.dfs(next_event + 1, current_utility);
    }
}

fn run_exact(engine: &mut ScoringEngine<'_>, k: usize) -> Schedule {
    let inst = engine.instance();
    let empty = Schedule::new(inst);
    let mut event_bound = vec![0.0f64; inst.num_events()];
    for (event, interval) in inst.assignment_universe() {
        if !empty.is_valid_assignment(inst, event, interval) {
            continue; // duration-extension guard: off-calendar spans
        }
        let s = engine.assignment_score(event, interval);
        let b = &mut event_bound[event.index()];
        if s > *b {
            *b = s;
        }
    }

    let mut search = Search {
        inst,
        k: k.min(inst.num_events()),
        engine,
        schedule: Schedule::new(inst),
        event_bound,
        best_utility: 0.0,
        best_schedule: Schedule::new(inst),
    };
    search.dfs(0, 0.0);
    search.best_schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::Alg;
    use crate::hor::Hor;
    use ses_core::model::running_example;
    use ses_core::scoring::utility::total_utility;

    #[test]
    fn optimal_on_running_example_k3() {
        let inst = running_example();
        let exact = Exact.run(&inst, 3);
        // The greedy schedule {e4@t2, e1@t1, e2@t2} (Ω ≈ 1.4073) is *not*
        // optimal: the exact solver finds Ω* ≈ 1.4281 — a live demonstration
        // of why Theorem 1 rules out a PTAS and greedy is only a heuristic.
        let alg = Alg.run(&inst, 3);
        assert!(exact.utility > alg.utility + 1e-3);
        assert!((exact.utility - 1.4281).abs() < 5e-4, "Ω* = {}", exact.utility);
    }

    #[test]
    fn greedy_never_exceeds_optimum() {
        let inst = running_example();
        for k in 1..=4 {
            let opt = Exact.run(&inst, k).utility;
            for res in [Alg.run(&inst, k), Hor.run(&inst, k)] {
                assert!(
                    res.utility <= opt + 1e-9,
                    "k = {k}: {} beat the optimum {} with {}",
                    res.algorithm,
                    opt,
                    res.utility
                );
            }
        }
    }

    #[test]
    fn reported_utility_matches_evaluator() {
        let inst = running_example();
        let res = Exact.run(&inst, 2);
        let omega = total_utility(&inst, &res.schedule);
        assert!((res.utility - omega).abs() < 1e-12);
    }

    #[test]
    fn respects_k() {
        let inst = running_example();
        for k in 0..=4 {
            assert!(Exact.run(&inst, k).schedule.len() <= k);
        }
    }

    /// Constrained EXACT stays the optimality oracle: its schedules respect
    /// the constraints, never beat the unconstrained optimum, and still
    /// dominate constrained greedy runs.
    #[test]
    fn constrained_search_respects_rules_and_dominates_greedy() {
        use ses_core::constraints::ConstraintSet;
        use ses_core::{EventId, LocationId};

        let unconstrained = running_example();
        let free_opt = Exact.run(&unconstrained, 3).utility;

        let mut inst = running_example();
        let mut cs = ConstraintSet::new();
        cs.add_conflict(EventId::new(0), EventId::new(3)); // e1 – e4 exclusive
        cs.add_precedence(EventId::new(2), EventId::new(1)); // e3 before e2
        cs.set_venue_capacity(LocationId::new(0), 1); // Stage 1: one slot
        inst.constraints = cs;
        assert!(inst.validate().is_ok());

        let exact = Exact.run(&inst, 3);
        exact.schedule.verify_feasible(&inst).expect("EXACT emitted an infeasible schedule");
        let scheduled = |i: usize| exact.schedule.is_scheduled(EventId::new(i));
        assert!(!(scheduled(0) && scheduled(3)), "conflict e1–e4 violated");
        assert!(exact.utility <= free_opt + 1e-12, "constraints cannot raise the optimum");
        assert!(exact.utility > 0.0);

        for res in [Alg.run(&inst, 3), Hor.run(&inst, 3)] {
            res.schedule.verify_feasible(&inst).expect("greedy emitted an infeasible schedule");
            assert!(
                res.utility <= exact.utility + 1e-9,
                "{} beat constrained EXACT ({} > {})",
                res.algorithm,
                res.utility,
                exact.utility
            );
        }
    }
}

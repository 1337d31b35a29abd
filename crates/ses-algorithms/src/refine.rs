//! Local-search refinement of schedules — an extension beyond the paper.
//!
//! Motivation: the horizontal policy's known trade-off (§3.3) is that it
//! assigns the same number of events per interval even when packing more
//! events into low-competition intervals would pay. Our experiments
//! (EXPERIMENTS.md, §4.2.8 row) show this costs HOR a few percent of
//! utility on homogeneous-interest datasets. A cheap post-processing pass
//! recovers most of it:
//!
//! * **relocation** — move one scheduled event to a different interval when
//!   the net utility change is positive;
//! * **substitution** — swap a scheduled event for an unscheduled one in
//!   the same interval when the replacement's marginal gain exceeds the
//!   incumbent's current contribution.
//!
//! Both moves evaluate exact deltas through the scoring engine (remove,
//! rescore, re-add), so the utility never decreases; passes repeat until a
//! fixed point or `max_passes`.

use crate::common::{timed_result, RunConfig, ScheduleResult, Scheduler, Scratch};
use ses_core::model::Instance;
use ses_core::parallel::Threads;
use ses_core::schedule::Schedule;
use ses_core::scoring::ScoringEngine;
use ses_core::stats::Stats;
use ses_core::{EventId, IntervalId};

/// Configuration for the local search.
#[derive(Debug, Clone, Copy)]
pub struct LocalSearch {
    /// Maximum improvement passes (each pass is O(|S| · (|T| + |E|))
    /// score evaluations).
    pub max_passes: usize,
    /// Enable relocation moves.
    pub relocate: bool,
    /// Enable substitution moves.
    pub substitute: bool,
}

impl Default for LocalSearch {
    fn default() -> Self {
        Self { max_passes: 8, relocate: true, substitute: true }
    }
}

/// Minimum strict improvement for a move to be taken (guards against
/// floating-point churn cycles).
const MIN_GAIN: f64 = 1e-9;

impl LocalSearch {
    /// Refines `schedule` in place; returns the total utility improvement
    /// and the scoring work performed.
    pub fn refine(&self, inst: &Instance, schedule: &mut Schedule) -> (f64, Stats) {
        self.refine_threaded(inst, schedule, Threads::default())
    }

    /// [`refine`](Self::refine) with an explicit engine thread count
    /// (bit-identical for every count).
    pub fn refine_threaded(
        &self,
        inst: &Instance,
        schedule: &mut Schedule,
        threads: Threads,
    ) -> (f64, Stats) {
        let mut engine = ScoringEngine::with_threads(inst, threads);
        for a in schedule.assignments() {
            engine.apply(a.event, a.interval);
        }

        let mut total_gain = 0.0;
        for _ in 0..self.max_passes {
            let mut pass_gain = 0.0;
            if self.relocate {
                pass_gain += self.relocation_pass(inst, schedule, &mut engine);
            }
            if self.substitute {
                pass_gain += self.substitution_pass(inst, schedule, &mut engine);
            }
            total_gain += pass_gain;
            if pass_gain <= MIN_GAIN {
                break;
            }
        }
        (total_gain, *engine.stats())
    }

    /// Tries to move each scheduled event to its best interval.
    fn relocation_pass(
        &self,
        inst: &Instance,
        schedule: &mut Schedule,
        engine: &mut ScoringEngine<'_>,
    ) -> f64 {
        let mut gain_total = 0.0;
        let snapshot: Vec<_> = schedule.assignments().to_vec();
        for a in snapshot {
            let (e, t_old) = (a.event, a.interval);
            // Take the event out; its loss is the marginal value it had.
            engine.unapply(e, t_old);
            schedule.unassign(inst, e).expect("snapshot event is scheduled");
            let old_value = engine.assignment_score(e, t_old);

            let mut best_t = t_old;
            let mut best_value = old_value;
            for t in 0..inst.num_intervals() {
                let t = IntervalId::new(t);
                if t == t_old || !schedule.is_valid_assignment(inst, e, t) {
                    continue;
                }
                let v = engine.assignment_score(e, t);
                if v > best_value + MIN_GAIN {
                    best_value = v;
                    best_t = t;
                }
            }
            schedule.assign(inst, e, best_t).expect("checked valid");
            engine.apply(e, best_t);
            gain_total += best_value - old_value;
        }
        gain_total
    }

    /// Tries to replace each scheduled event with a better unscheduled one
    /// in the same interval.
    fn substitution_pass(
        &self,
        inst: &Instance,
        schedule: &mut Schedule,
        engine: &mut ScoringEngine<'_>,
    ) -> f64 {
        let mut gain_total = 0.0;
        let snapshot: Vec<_> = schedule.assignments().to_vec();
        for a in snapshot {
            let (e, t) = (a.event, a.interval);
            engine.unapply(e, t);
            schedule.unassign(inst, e).expect("snapshot event is scheduled");
            let incumbent = engine.assignment_score(e, t);

            let mut best = e;
            let mut best_value = incumbent;
            for cand in 0..inst.num_events() {
                let cand = EventId::new(cand);
                if cand == e
                    || schedule.is_scheduled(cand)
                    || !schedule.is_valid_assignment(inst, cand, t)
                {
                    continue;
                }
                let v = engine.assignment_score(cand, t);
                if v > best_value + MIN_GAIN {
                    best_value = v;
                    best = cand;
                }
            }
            schedule.assign(inst, best, t).expect("checked valid");
            engine.apply(best, t);
            gain_total += best_value - incumbent;
        }
        gain_total
    }
}

/// Scheduler decorator: run `inner`, then local-search the result.
#[derive(Debug, Clone, Copy)]
pub struct Refined<S> {
    /// The scheduler producing the initial solution.
    pub inner: S,
    /// The local search applied on top.
    pub search: LocalSearch,
}

impl<S: Scheduler> Refined<S> {
    /// Wraps `inner` with the default local search.
    pub fn new(inner: S) -> Self {
        Self { inner, search: LocalSearch::default() }
    }
}

impl<S: Scheduler> Scheduler for Refined<S> {
    fn name(&self) -> &'static str {
        "REFINED"
    }

    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        scratch: &mut Scratch,
    ) -> ScheduleResult {
        let base = self.inner.run_configured(inst, k, cfg, scratch);
        let mut stats = base.stats;
        let profile = base.profile;
        let mut schedule = base.schedule;
        let mut res = timed_result(self.name(), inst, k, || {
            let (_, search_stats) = self.search.refine_threaded(inst, &mut schedule, cfg.threads);
            stats += search_stats;
            // The profile covers the base run; the local-search engine is
            // not instrumented.
            (schedule, stats, profile)
        });
        // The time covers the base run and the search.
        res.elapsed += base.elapsed;
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hor::Hor;
    use crate::top::Top;
    use ses_core::model::running_example;
    use ses_core::scoring::utility::total_utility;

    #[test]
    fn refinement_never_hurts() {
        let inst = running_example();
        for k in 1..=4 {
            let base = Hor.run(&inst, k);
            let before = base.utility;
            let mut schedule = base.schedule;
            let (gain, _) = LocalSearch::default().refine(&inst, &mut schedule);
            let after = total_utility(&inst, &schedule);
            assert!(after >= before - 1e-9, "k = {k}: {before} -> {after}");
            assert!((after - (before + gain)).abs() < 1e-9, "reported gain must be exact");
            assert!(schedule.verify_feasible(&inst).is_ok());
        }
    }

    /// The reported time covers the base run, not only the search: a base
    /// scheduler reporting an hour makes the refined run report at least
    /// that.
    #[test]
    fn elapsed_includes_the_base_run() {
        struct HourLongTop;
        impl Scheduler for HourLongTop {
            fn name(&self) -> &'static str {
                "TOP"
            }
            fn run_configured(
                &self,
                inst: &Instance,
                k: usize,
                cfg: RunConfig,
                scratch: &mut Scratch,
            ) -> ScheduleResult {
                let mut res = Top.run_configured(inst, k, cfg, scratch);
                res.elapsed = std::time::Duration::from_secs(3600);
                res
            }
        }
        let res = Refined::new(HourLongTop).run(&running_example(), 3);
        assert!(res.elapsed >= std::time::Duration::from_secs(3600), "{:?}", res.elapsed);
    }

    /// On the running example the greedy is suboptimal (Ω ≈ 1.4073 vs
    /// Ω* ≈ 1.4281) — relocation alone recovers the optimum.
    #[test]
    fn recovers_optimum_on_running_example() {
        let inst = running_example();
        let base = Hor.run(&inst, 3);
        let mut schedule = base.schedule;
        let (gain, _) = LocalSearch::default().refine(&inst, &mut schedule);
        assert!(gain > 1e-3, "refinement should find the greedy gap");
        let after = total_utility(&inst, &schedule);
        assert!((after - 1.4281).abs() < 5e-4, "Ω = {after} should reach the optimum");
    }

    #[test]
    fn substitution_rescues_top() {
        let inst = running_example();
        // TOP's schedule piles by initial score; substitution + relocation
        // should strictly improve it here.
        let base = Top.run(&inst, 3);
        let refined = Refined::new(Top).run(&inst, 3);
        assert!(refined.utility >= base.utility - 1e-12);
        assert!(refined.schedule.verify_feasible(&inst).is_ok());
        assert_eq!(refined.schedule.len(), 3, "refinement preserves |S|");
    }

    #[test]
    fn fixed_point_is_stable() {
        let inst = running_example();
        let mut schedule = Refined::new(Hor).run(&inst, 3).schedule;
        // A second refinement finds nothing.
        let (gain, _) = LocalSearch::default().refine(&inst, &mut schedule);
        assert!(gain.abs() <= 1e-9, "second refinement must be a no-op, got {gain}");
    }

    #[test]
    fn disabled_moves_do_nothing() {
        let inst = running_example();
        let base = Hor.run(&inst, 3);
        let mut schedule = base.schedule.clone();
        let search = LocalSearch { max_passes: 4, relocate: false, substitute: false };
        let (gain, stats) = search.refine(&inst, &mut schedule);
        assert_eq!(gain, 0.0);
        assert_eq!(schedule, base.schedule);
        // Only the engine-construction user-ops were spent.
        assert_eq!(stats.score_computations, 0);
    }
}

//! `ALG` — the baseline greedy of the SES paper's predecessor
//! ([4], ICDE 2018), reimplemented as the comparison target (§3.1).
//!
//! ALG scores **all** `|E| · |T|` assignments up front, then repeats `k`
//! times: scan *every* live assignment to find the top valid one, select it,
//! and recompute from scratch the score of every remaining assignment in the
//! selected interval. Its two inefficiencies — full-table scans and full
//! per-interval recomputation — are exactly what INC/HOR/HOR-I attack.

use crate::common::{
    max_duration, run_with_engine, score_table, stale_window, Cand, RunConfig, ScheduleResult,
    Scheduler, Scratch, TableEntry,
};
use ses_core::model::Instance;
use ses_core::schedule::Schedule;
use ses_core::scoring::ScoringEngine;
use ses_core::{EventId, IntervalId};

/// The baseline greedy algorithm (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Alg;

impl Scheduler for Alg {
    fn name(&self) -> &'static str {
        "ALG"
    }

    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        scratch: &mut Scratch,
    ) -> ScheduleResult {
        run_with_engine(self.name(), inst, k, cfg, |engine| {
            select(engine, k, &mut scratch.table, |_, gain| gain, false)
        })
    }
}

/// ALG's selection: seeds `scores` with the scoring pass, then runs the
/// full-scan loop over it.
///
/// `objective(event, gain)` maps every attendance gain — seeded or
/// refreshed — to the selection score: the identity for ALG, the affine
/// profit for [`ProfitGreedy`](crate::extensions::ProfitGreedy). With
/// `stop_when_negative` the loop ends early once the best score is
/// negative.
pub(crate) fn select(
    engine: &mut ScoringEngine<'_>,
    k: usize,
    scores: &mut Vec<Option<TableEntry>>,
    objective: impl Fn(EventId, f64) -> f64,
    stop_when_negative: bool,
) -> Schedule {
    let inst = engine.instance();
    let num_events = inst.num_events();
    let num_intervals = inst.num_intervals();
    let mut schedule = Schedule::new(inst);
    let max_dur = max_duration(inst);

    // scores[t * |E| + e]; assignments that are infeasible even on the empty
    // schedule (only possible under the duration extension, where a spanning
    // event can run off the calendar) are born dead.
    score_table(engine, false, scores);
    for (idx, cell) in scores.iter_mut().enumerate() {
        if let Some(c) = cell {
            c.score = objective(EventId::new(idx % num_events), c.score);
        }
    }

    while schedule.len() < k {
        // Full scan for the top valid assignment (the paper's first
        // shortcoming: every step examines all assignments).
        let mut best: Option<Cand> = None;
        for t in 0..num_intervals {
            let interval = IntervalId::new(t);
            for e in 0..num_events {
                let idx = t * num_events + e;
                let Some(cell) = scores[idx] else { continue };
                engine.stats_mut().record_examined(1);
                let event = EventId::new(e);
                if !schedule.is_valid_assignment(inst, event, interval) {
                    scores[idx] = None;
                    continue;
                }
                let cand = Cand::new(cell.score, interval, event);
                if best.is_none_or(|b| cand.beats(&b)) {
                    best = Some(cand);
                }
            }
        }
        let Some(chosen) = best else { break };
        if stop_when_negative && chosen.score < 0.0 {
            break;
        }

        schedule
            .assign(inst, chosen.event, chosen.interval)
            .expect("scanned assignment must be valid");
        engine.apply(chosen.event, chosen.interval);
        if schedule.len() >= k {
            break; // no point refreshing scores after the final selection
        }

        // Kill the selected event everywhere.
        for t in 0..num_intervals {
            scores[t * num_events + chosen.event.index()] = None;
        }
        // Recompute every surviving assignment whose span intersects the
        // placed span, from scratch (the paper's second shortcoming; for
        // duration-1 this is exactly the selected interval).
        let placed_start = chosen.interval.index();
        let placed_end = placed_start + inst.events[chosen.event.index()].duration as usize;
        for ti in stale_window(inst, max_dur, chosen.event, chosen.interval) {
            for e in 0..num_events {
                let idx = ti * num_events + e;
                if scores[idx].is_none() {
                    continue;
                }
                let d_e = inst.events[e].duration as usize;
                if ti + d_e <= placed_start || ti >= placed_end {
                    continue; // spans don't intersect
                }
                engine.stats_mut().record_examined(1);
                let (event, interval) = (EventId::new(e), IntervalId::new(ti));
                scores[idx] =
                    schedule.is_valid_assignment(inst, event, interval).then(|| TableEntry {
                        score: objective(event, engine.assignment_score_update(event, interval)),
                        exact: true,
                    });
            }
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_core::model::running_example;
    use ses_core::Assignment;

    /// Example 2: ALG selects e4@t2, then e1@t1, then e2@t2.
    #[test]
    fn running_example_trace() {
        let inst = running_example();
        let res = Alg.run(&inst, 3);
        assert_eq!(
            res.schedule.assignments(),
            &[
                Assignment::new(EventId::new(3), IntervalId::new(1)),
                Assignment::new(EventId::new(0), IntervalId::new(0)),
                Assignment::new(EventId::new(1), IntervalId::new(1)),
            ]
        );
        assert!((res.utility - 1.4073).abs() < 5e-4);
    }

    /// Example 2 performs 8 initial computations plus 4 updates: 3 updates
    /// of t2 after selecting e4, then 1 update of t1's e3 after selecting e1
    /// (e2@t1 became invalid). No updates follow the final selection.
    #[test]
    fn running_example_update_counts() {
        let inst = running_example();
        let res = Alg.run(&inst, 3);
        assert_eq!(res.stats.score_computations, 12);
        assert_eq!(res.stats.score_updates, 4);
    }

    #[test]
    fn k_zero_returns_empty() {
        let inst = running_example();
        let res = Alg.run(&inst, 0);
        assert!(res.schedule.is_empty());
        assert_eq!(res.utility, 0.0);
    }

    #[test]
    fn k_larger_than_feasible_saturates() {
        let inst = running_example();
        // Only 2 intervals × 3 distinct locations; e1/e2 share Stage 1, so at
        // most 2 of {e1, e2} slots... here all 4 events fit (e1@t1, e2@t2,
        // e3, e4 anywhere) — ask for more than |E|.
        let res = Alg.run(&inst, 10);
        assert_eq!(res.schedule.len(), 4);
        assert!(res.schedule.verify_feasible(&inst).is_ok());
    }

    #[test]
    fn respects_resource_budget() {
        let mut inst = running_example();
        inst.resources = 1.0; // one unit-cost event per interval
        let res = Alg.run(&inst, 4);
        assert_eq!(res.schedule.len(), 2);
        for t in 0..2 {
            assert!(res.schedule.events_at(IntervalId::new(t)).len() <= 1);
        }
    }
}

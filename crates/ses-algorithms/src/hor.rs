//! `HOR` — the Horizontal Assignment algorithm (§3.3, Algorithm 2).
//!
//! HOR trades exactness of the greedy order for far fewer score updates via
//! the **horizontal selection policy**: selections proceed in *rounds*, and
//! within a round at most one assignment is made per interval (the top one).
//! Because a round never places two events in the same interval, no score
//! changes mid-round — all recomputation is deferred to the next round's
//! start, where the scores of all surviving `(event, interval)` pairs are
//! rebuilt from scratch.
//!
//! Consequences analyzed in the paper:
//! * when `k ≤ |T|` there is exactly one round and **zero** updates — HOR
//!   performs the bare minimum `|E|·|T|` score computations (Prop. 4);
//! * the worst case w.r.t. `k, |T|` is `k > |T|` with `k mod |T| = 1`
//!   (Prop. 5): the last round pays for `|T|` selections but uses one;
//! * HOR may deviate from ALG's schedule (it ignores that some intervals
//!   deserve more events than others), but in >70% of the paper's runs the
//!   utility is identical and the observed gap averages 0.008%.

use crate::common::{
    better, max_duration, run_with_engine, score_table, stale_window, Cand, RunConfig,
    ScheduleResult, Scheduler, Scratch,
};
use ses_core::model::Instance;
use ses_core::schedule::Schedule;
use ses_core::scoring::ScoringEngine;
use ses_core::{EventId, IntervalId};

/// The Horizontal Assignment algorithm (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Hor;

impl Scheduler for Hor {
    fn name(&self) -> &'static str {
        "HOR"
    }

    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        scratch: &mut Scratch,
    ) -> ScheduleResult {
        run_with_engine(self.name(), inst, k, cfg, |engine| run_hor(engine, k, scratch))
    }
}

/// Sorts one interval's candidate list into HOR's canonical order
/// (descending score, ties by ascending event id).
fn sort_list(list: &mut [(f64, EventId)]) {
    list.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores").then(a.1.cmp(&b.1)));
}

fn run_hor(engine: &mut ScoringEngine<'_>, k: usize, scratch: &mut Scratch) -> Schedule {
    let inst = engine.instance();
    let num_events = inst.num_events();
    let num_intervals = inst.num_intervals();
    let mut schedule = Schedule::new(inst);
    let max_dur = max_duration(inst);
    let mut first_round = true;
    let Scratch { table, rows: lists, cursors: cursor, m, .. } = scratch;

    while schedule.len() < k {
        // Round start: rebuild per-interval lists of valid assignments with
        // fresh scores (Algorithm 2 lines 3–8); the row buffers come from
        // the scratch, so rounds past the first allocate nothing.
        lists.truncate(num_intervals);
        for list in lists.iter_mut() {
            list.clear();
        }
        lists.resize_with(num_intervals, Vec::new);
        cursor.resize(num_intervals, 0);
        m.resize(num_intervals, None);
        if first_round {
            // The score-all first round is the shared scoring pass (row
            // fan-out at `threads > 1`) read back row by row.
            score_table(engine, false, table);
            for (t, list) in lists.iter_mut().enumerate() {
                list.extend(
                    (0..num_events).filter_map(|e| {
                        table[t * num_events + e].map(|c| (c.score, EventId::new(e)))
                    }),
                );
                sort_list(list);
            }
        } else {
            #[allow(clippy::needless_range_loop)] // t indexes lists *and* names the interval
            for t in 0..num_intervals {
                let interval = IntervalId::new(t);
                for e in 0..num_events {
                    let event = EventId::new(e);
                    if schedule.is_scheduled(event)
                        || !schedule.is_valid_assignment(inst, event, interval)
                    {
                        continue;
                    }
                    let score = engine.assignment_score_update(event, interval);
                    lists[t].push((score, event));
                }
                sort_list(&mut lists[t]);
            }
        }
        first_round = false;

        // M: per interval, the best not-yet-consumed entry; `cursor[t]`
        // points at the next fallback within lists[t].
        for t in 0..num_intervals {
            m[t] = lists[t].first().map(|&(s, e)| Cand::new(s, IntervalId::new(t), e));
            cursor[t] = 1;
        }

        // Selection phase (Algorithm 2 lines 9–14).
        let selected_before = schedule.len();
        loop {
            if schedule.len() >= k {
                break;
            }
            let mut top: Option<Cand> = None;
            for cand in m.iter().flatten() {
                engine.stats_mut().record_examined(1);
                top = better(top, Some(*cand));
            }
            let Some(top) = top else { break };
            let tp = top.interval.index();
            // For the paper's duration-1 model only event reuse can break a
            // round-start validity check; spanning events can additionally
            // collide with occupants placed later in the round, so the full
            // check is repeated here.
            if schedule.is_valid_assignment(inst, top.event, top.interval) {
                schedule.assign(inst, top.event, top.interval).expect("just validated");
                engine.apply(top.event, top.interval);
                // The whole stale window is done for this round: its
                // precomputed scores are void (a no-op beyond m[tp] in the
                // paper's duration-1 model).
                for ti in stale_window(inst, max_dur, top.event, top.interval) {
                    m[ti] = None;
                }
            } else {
                // The event was claimed by another interval this round:
                // fall back to the interval's next free entry (line 14).
                m[tp] =
                    next_free(inst, &lists[tp], &mut cursor[tp], &schedule, top.interval, engine);
            }
        }

        if schedule.len() == selected_before {
            break; // nothing assignable remains
        }
    }

    schedule
}

/// Advances the cursor past entries that are no longer assignable (event
/// claimed by another interval, or — under the duration extension — a span
/// collision that arose mid-round) and returns the first valid one.
fn next_free(
    inst: &Instance,
    list: &[(f64, EventId)],
    cursor: &mut usize,
    schedule: &Schedule,
    interval: IntervalId,
    engine: &mut ScoringEngine<'_>,
) -> Option<Cand> {
    while *cursor < list.len() {
        let (score, event) = list[*cursor];
        *cursor += 1;
        engine.stats_mut().record_examined(1);
        if schedule.is_valid_assignment(inst, event, interval) {
            return Some(Cand::new(score, interval, event));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::Alg;
    use ses_core::model::running_example;
    use ses_core::Assignment;

    /// Example 4: HOR selects e4@t2 then e1@t1 (round 1), updates all
    /// surviving assignments (3 of them), then selects e2@t2 — same schedule
    /// as ALG/INC.
    #[test]
    fn running_example_trace_and_updates() {
        let inst = running_example();
        let res = Hor.run(&inst, 3);
        assert_eq!(
            res.schedule.assignments(),
            &[
                Assignment::new(EventId::new(3), IntervalId::new(1)),
                Assignment::new(EventId::new(0), IntervalId::new(0)),
                Assignment::new(EventId::new(1), IntervalId::new(1)),
            ]
        );
        // Round 2 rescores: free events {e2, e3} × feasible intervals.
        // e2 is location-blocked at t1, so candidates are e2@t2, e3@t1, e3@t2.
        assert_eq!(res.stats.score_updates, 3, "Example 4: HOR performs three updates");
        assert_eq!(res.stats.score_computations, 11); // 8 initial + 3
    }

    #[test]
    fn same_utility_as_alg_on_running_example() {
        let inst = running_example();
        for k in 0..=4 {
            let a = Alg.run(&inst, k);
            let h = Hor.run(&inst, k);
            assert!(
                (a.utility - h.utility).abs() < 1e-12,
                "k = {k}: ALG {} vs HOR {}",
                a.utility,
                h.utility
            );
        }
    }

    /// Proposition 4's easy half: with k ≤ |T| HOR performs zero updates.
    #[test]
    fn no_updates_when_k_at_most_intervals() {
        let inst = running_example();
        let res = Hor.run(&inst, 2);
        assert_eq!(res.stats.score_updates, 0);
        assert_eq!(res.stats.score_computations, 8);
        assert_eq!(res.schedule.len(), 2);
    }

    #[test]
    fn horizontal_policy_spreads_events() {
        let inst = running_example();
        // k = 2 must put one event in each interval (one per interval per round).
        let res = Hor.run(&inst, 2);
        assert_eq!(res.schedule.events_at(IntervalId::new(0)).len(), 1);
        assert_eq!(res.schedule.events_at(IntervalId::new(1)).len(), 1);
    }

    #[test]
    fn saturation_is_feasible() {
        let inst = running_example();
        let res = Hor.run(&inst, 99);
        assert_eq!(res.schedule.len(), 4);
        assert!(res.schedule.verify_feasible(&inst).is_ok());
    }
}

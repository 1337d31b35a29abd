//! `HOR-I` — Horizontal Assignment with Incremental Updating (§3.4,
//! Algorithm 3).
//!
//! HOR-I keeps HOR's round structure (one selection per interval per round)
//! but replaces HOR's full start-of-round rescoring with a per-interval
//! incremental pass: entries are walked in descending stored-score order
//! under a per-interval bound `Φ` (the best refreshed score so far); an
//! entry is refreshed only while its stored score — an upper bound, by score
//! monotonicity — can still reach `Φ`. Entries skipped keep their stale
//! stored score and are flagged *partially updated*.
//!
//! During a round's selection phase, if an interval's top entry loses its
//! event to another interval, the fallback must be the interval's best
//! *updated* entry; when a stale entry's bound still beats every updated
//! one, the interval is incrementally re-walked first (Algorithm 3 lines
//! 27–30) so HOR-I provably picks the same fallback HOR would
//! (Proposition 6).
//!
//! HOR-I is identical to HOR whenever one round suffices (`k ≤ |T|`).

use crate::common::{
    better, max_duration, run_with_engine, score_table, seed_interval_lists, stale_window, Cand,
    Entry, RunConfig, ScheduleResult, Scheduler, Scratch,
};
use ses_core::model::Instance;
use ses_core::schedule::Schedule;
use ses_core::scoring::ScoringEngine;
use ses_core::IntervalId;

/// The Horizontal Assignment with Incremental Updating algorithm
/// (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct HorI;

impl Scheduler for HorI {
    fn name(&self) -> &'static str {
        "HOR-I"
    }

    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        scratch: &mut Scratch,
    ) -> ScheduleResult {
        run_with_engine(self.name(), inst, k, cfg, |engine| {
            run_hor_i(engine, k, cfg.bound_gate, scratch)
        })
    }
}

fn sort_entries(entries: &mut [Entry]) {
    entries.sort_unstable_by(|a, b| {
        b.score.partial_cmp(&a.score).expect("finite scores").then(a.event.cmp(&b.event))
    });
}

/// The incremental per-interval pass (Algorithm 3 lines 9–20): drop invalid
/// entries, refresh those whose stored bound can still reach the running
/// per-interval bound `Φ`, flag the rest partially updated. When
/// `trust_updated_flags` is true (in-round re-walks), entries already flagged
/// updated are known current — their interval has received no assignment
/// since they were refreshed — and are folded into `Φ` without recomputation.
///
/// Bound-seeded entries (the opt-in bound-first gate) need no special
/// handling here: they are ordinary stale entries whose stored value is a
/// sound upper bound, so the walk refreshes exactly the ones that can still
/// reach `Φ` — any entry tying or beating the interval's true best has
/// `bound ≥ true ≥ Φ` and is therefore swept before it matters.
fn walk_interval(
    inst: &Instance,
    engine: &mut ScoringEngine<'_>,
    schedule: &Schedule,
    entries: &mut Vec<Entry>,
    interval: IntervalId,
    trust_updated_flags: bool,
) {
    let mut phi = 0.0f64;
    let mut idx = 0;
    while idx < entries.len() {
        engine.stats_mut().record_examined(1);
        let ent = entries[idx];
        if !schedule.is_valid_assignment(inst, ent.event, interval) {
            entries.remove(idx);
            continue;
        }
        if trust_updated_flags && ent.updated {
            phi = phi.max(ent.score);
        } else if ent.score >= phi {
            let fresh = engine.assignment_score_update(ent.event, interval);
            entries[idx].score = fresh;
            entries[idx].updated = true;
            phi = phi.max(fresh);
        } else {
            entries[idx].updated = false;
        }
        idx += 1;
    }
    sort_entries(entries);
}

/// The interval's best selectable fallback: its top updated, unscheduled
/// entry — re-walking the interval whenever a stale bound could still beat
/// it (the Proposition-6 guard).
fn fallback(
    inst: &Instance,
    engine: &mut ScoringEngine<'_>,
    schedule: &Schedule,
    entries: &mut Vec<Entry>,
    interval: IntervalId,
) -> Option<Cand> {
    loop {
        let mut best_updated: Option<Cand> = None;
        let mut best_stale: Option<Cand> = None;
        for ent in entries.iter() {
            engine.stats_mut().record_examined(1);
            if !schedule.is_valid_assignment(inst, ent.event, interval) {
                continue;
            }
            let cand = Cand::new(ent.score, interval, ent.event);
            if ent.updated {
                if best_updated.is_none() {
                    best_updated = Some(cand); // sorted: first updated is best
                }
            } else if best_stale.is_none() {
                best_stale = Some(cand);
            }
            if best_updated.is_some() && best_stale.is_some() {
                break;
            }
        }
        match (best_updated, best_stale) {
            (None, None) => return None,
            (Some(u), None) => return Some(u),
            (u, Some(st)) => {
                if u.is_none_or(|u| st.beats(&u)) {
                    // A stale upper bound could still win: refresh the
                    // interval and retry (each re-walk refreshes at least the
                    // triggering stale entry, so this terminates).
                    walk_interval(inst, engine, schedule, entries, interval, true);
                } else {
                    return u;
                }
            }
        }
    }
}

fn run_hor_i(
    engine: &mut ScoringEngine<'_>,
    k: usize,
    gate: bool,
    scratch: &mut Scratch,
) -> Schedule {
    let inst = engine.instance();
    let num_intervals = inst.num_intervals();
    let mut schedule = Schedule::new(inst);
    let max_dur = max_duration(inst);
    let Scratch { table, lists, m, .. } = scratch;
    let mut first_round = true;

    while schedule.len() < k {
        if first_round {
            // Generate all valid assignments (Algorithm 3 lines 3–7) — with
            // initial scores, or (bound-first gate) with O(duration) bound
            // seeds that the round-1 walk below lazily refreshes where they
            // can still reach the interval's Φ.
            score_table(engine, gate, table);
            seed_interval_lists(inst, table, lists, m);
            if gate {
                for (t, list) in lists.iter_mut().enumerate() {
                    let interval = IntervalId::new(t);
                    walk_interval(inst, engine, &schedule, &mut list.entries, interval, false);
                }
            }
            first_round = false;
        } else {
            // Incremental start-of-round pass (lines 8–20).
            #[allow(clippy::needless_range_loop)] // t indexes lists *and* names the interval
            for t in 0..num_intervals {
                walk_interval(
                    inst,
                    engine,
                    &schedule,
                    &mut lists[t].entries,
                    IntervalId::new(t),
                    false,
                );
            }
        }

        // M: per interval, the top updated entry. Without the gate the
        // sorted front is always updated after a walk (stale bounds end
        // strictly below Φ); with it, gate-skipped stale entries may sit
        // above, so the first *updated* entry — the same candidate either
        // way — is what M records.
        for t in 0..num_intervals {
            m[t] = lists[t]
                .entries
                .iter()
                .find(|e| e.updated)
                .map(|e| Cand::new(e.score, IntervalId::new(t), e.event));
        }

        // Selection phase (lines 21–30).
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
            // Re-validated in full: under the duration extension a span
            // collision can arise mid-round (for duration-1 only event reuse
            // can invalidate a walked entry).
            if schedule.is_valid_assignment(inst, top.event, top.interval) {
                schedule.assign(inst, top.event, top.interval).expect("just validated");
                engine.apply(top.event, top.interval);
                // Every starting interval in the stale window may hold
                // span-affected entries: mark survivors stale and retire the
                // window for this round (a no-op beyond tp under duration-1).
                for ti in stale_window(inst, max_dur, top.event, top.interval) {
                    lists[ti].entries.retain(|e| e.event != top.event);
                    for e in &mut lists[ti].entries {
                        e.updated = false;
                    }
                    m[ti] = None;
                }
            } else {
                m[tp] = fallback(inst, engine, &schedule, &mut lists[tp].entries, top.interval);
            }
        }

        if schedule.len() == selected_before {
            break;
        }
    }

    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hor::Hor;
    use ses_core::model::running_example;
    use ses_core::{Assignment, EventId};

    /// Example 5: versus HOR's three round-2 updates, HOR-I performs two —
    /// refreshing e2@t2 (0.16) bounds out e3@t2 (stale 0.09), while e3@t1
    /// must still be refreshed.
    #[test]
    fn running_example_trace_and_updates() {
        let inst = running_example();
        let res = HorI.run(&inst, 3);
        assert_eq!(
            res.schedule.assignments(),
            &[
                Assignment::new(EventId::new(3), IntervalId::new(1)),
                Assignment::new(EventId::new(0), IntervalId::new(0)),
                Assignment::new(EventId::new(1), IntervalId::new(1)),
            ]
        );
        assert_eq!(res.stats.score_updates, 2, "Example 5: HOR-I performs two of HOR's three");
        assert_eq!(res.stats.score_computations, 10); // 8 initial + 2
    }

    /// Proposition 6 on the running example (exact schedule equality).
    #[test]
    fn matches_hor_on_running_example() {
        let inst = running_example();
        for k in 0..=4 {
            let h = Hor.run(&inst, k);
            let hi = HorI.run(&inst, k);
            assert_eq!(h.schedule.assignments(), hi.schedule.assignments(), "k = {k}");
            assert!((h.utility - hi.utility).abs() < 1e-12);
        }
    }

    /// §3.4: HOR-I is *identical* to HOR when k ≤ |T| (single round).
    #[test]
    fn identical_to_hor_single_round() {
        let inst = running_example();
        let h = Hor.run(&inst, 2);
        let hi = HorI.run(&inst, 2);
        assert_eq!(h.schedule.assignments(), hi.schedule.assignments());
        assert_eq!(h.stats.score_computations, hi.stats.score_computations);
        assert_eq!(hi.stats.score_updates, 0);
    }

    #[test]
    fn never_more_updates_than_hor() {
        let inst = running_example();
        for k in 0..=4 {
            let h = Hor.run(&inst, k);
            let hi = HorI.run(&inst, k);
            assert!(
                hi.stats.score_computations <= h.stats.score_computations,
                "k = {k}: HOR-I {} vs HOR {}",
                hi.stats.score_computations,
                h.stats.score_computations
            );
        }
    }

    #[test]
    fn saturation_is_feasible() {
        let inst = running_example();
        let res = HorI.run(&inst, 99);
        assert_eq!(res.schedule.len(), 4);
        assert!(res.schedule.verify_feasible(&inst).is_ok());
    }
}

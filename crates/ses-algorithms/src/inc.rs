//! `INC` — the Incremental Updating algorithm (§3.2, Algorithm 1).
//!
//! INC makes the same greedy selections as [`Alg`](crate::alg::Alg)
//! (Proposition 3) while performing far fewer score computations, built on
//! two schemes:
//!
//! 1. **Incremental updating** (§3.2.1). After a selection, the scores of the
//!    selected interval's remaining assignments become *stale*. Because
//!    per-interval masses only grow, a stale score **upper-bounds** the
//!    refreshed score (the engine-level fact behind Proposition 1). With
//!    `Φ` = the score of the best *updated & valid* assignment, only stale
//!    assignments with stored score ≥ Φ can possibly be selected next
//!    (Corollary 1) — everything else keeps its stale score untouched.
//! 2. **Interval-organized assignments** (§3.2.2). Assignments live in
//!    per-interval lists kept sorted descending by stored score, plus a list
//!    `M` holding each interval's top updated & valid assignment. A
//!    partially-updated interval whose *front* stored score (the interval's
//!    best upper bound) is below Φ is skipped wholesale, and a walk inside an
//!    interval stops at the first entry below Φ.
//!
//! ### Divergence from the paper's pseudocode
//! Algorithm 1 line 18 gates interval access on `M[i].S ≤ Φ`, which is
//! vacuous (Φ is defined as `max_i M[i].S`). We implement the *intent* of
//! the §3.2.2 prose — "identify (and skip) the partially updated intervals
//! whose assignments are not going to be updated" — using the front stored
//! score as the interval's upper bound, which is both correct and effective.

use crate::common::{
    best_candidate, better, max_duration, run_with_engine, score_table, seed_interval_lists,
    stale_window, Cand, IntervalList, RunConfig, ScheduleResult, Scheduler, Scratch, TableEntry,
};
use ses_core::model::Instance;
use ses_core::schedule::Schedule;
use ses_core::scoring::ScoringEngine;
use ses_core::IntervalId;

/// The Incremental Updating algorithm (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Inc;

impl Scheduler for Inc {
    fn name(&self) -> &'static str {
        "INC"
    }

    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        scratch: &mut Scratch,
    ) -> ScheduleResult {
        run_with_engine(self.name(), inst, k, cfg, |engine| {
            run_inc(engine, k, cfg.bound_gate, scratch)
        })
    }
}

/// INC's interval-organized selection state (§3.2.2), shared with the
/// stream repairer: per-interval lists seeded from a score table, the list
/// `M` of each interval's top updated & valid assignment, and the
/// placement bookkeeping of Algorithm 1 lines 9–15. The Corollary-1 update
/// pass that runs before each choice is the caller's: INC's and the
/// repairer's walks count `assignments_examined` differently, and both
/// counts are pinned by goldens.
pub(crate) struct Selection<'s, 'a> {
    pub inst: &'a Instance,
    pub engine: &'s mut ScoringEngine<'a>,
    pub schedule: Schedule,
    pub lists: &'s mut Vec<IntervalList>,
    /// `M`: per interval, the top updated & valid assignment.
    pub m: &'s mut Vec<Option<Cand>>,
    max_dur: usize,
}

impl<'s, 'a> Selection<'s, 'a> {
    /// Seeds one list per interval from the `[t·|E| + e]` empty-schedule
    /// table (exact cells updated, bound cells stale) and derives `M`.
    ///
    /// `bound_seeded` marks a table the bound-first gate filled: every list
    /// is then left for the first update pass, an empty one included,
    /// which is INC's gated accounting. Otherwise a list counts as fully
    /// updated iff it holds no stale cell.
    pub fn seed(
        engine: &'s mut ScoringEngine<'a>,
        table: &[Option<TableEntry>],
        bound_seeded: bool,
        lists: &'s mut Vec<IntervalList>,
        m: &'s mut Vec<Option<Cand>>,
    ) -> Self {
        let inst = engine.instance();
        seed_interval_lists(inst, table, lists, m);
        for list in lists.iter_mut() {
            list.fully_updated = !bound_seeded && list.entries.iter().all(|e| e.updated);
        }
        let schedule = Schedule::new(inst);
        let mut sel = Self { inst, engine, schedule, lists, m, max_dur: max_duration(inst) };
        for i in 0..sel.lists.len() {
            sel.refresh_m(i);
        }
        sel
    }

    /// Re-derives `M[i]`: the first *updated and valid* entry in sorted
    /// order (= the interval's best updated score, since updated entries
    /// carry true scores). Invalid entries encountered on the way — e.g.
    /// events scheduled at other intervals in earlier rounds, left behind a
    /// walk's early break — are removed.
    pub fn refresh_m(&mut self, i: usize) {
        let interval = IntervalId::new(i);
        let mut found = None;
        let mut idx = 0;
        while idx < self.lists[i].entries.len() {
            let ent = self.lists[i].entries[idx];
            if !self.schedule.is_valid_assignment(self.inst, ent.event, interval) {
                self.lists[i].entries.remove(idx);
                continue;
            }
            if ent.updated {
                found = Some(Cand::new(ent.score, interval, ent.event));
                break;
            }
            idx += 1;
        }
        self.m[i] = found;
    }

    /// The best candidate in `M` under the canonical order.
    pub fn best(&self) -> Option<Cand> {
        best_candidate(self.m.iter().flatten().copied())
    }

    /// Greedy selection up to `k` assignments: each round runs
    /// `update_pass` with Φ = the best of `M` (the pass brings every
    /// candidate that could still beat Φ up to date), then places the top
    /// of `M` — now the true greedy choice.
    pub fn select(&mut self, k: usize, mut update_pass: impl FnMut(&mut Self, Option<Cand>)) {
        while self.schedule.len() < k {
            update_pass(self, self.best());
            let Some(chosen) = self.best() else { break };
            self.place(chosen);
        }
    }

    /// Places `chosen` (Algorithm 1 lines 9–15): every starting interval
    /// whose assignments may span into the placed span — the stale window;
    /// exactly the selected interval under duration-1 — has its survivors
    /// marked stale, and `M` entries the placement invalidated are
    /// re-derived.
    fn place(&mut self, chosen: Cand) {
        debug_assert!(
            self.schedule.is_valid_assignment(self.inst, chosen.event, chosen.interval),
            "M must only hold valid assignments"
        );
        self.schedule
            .assign(self.inst, chosen.event, chosen.interval)
            .expect("selected assignment must be valid");
        self.engine.apply(chosen.event, chosen.interval);

        let span = stale_window(self.inst, self.max_dur, chosen.event, chosen.interval);
        for ti in span.clone() {
            let list = &mut self.lists[ti];
            list.entries.retain(|e| e.event != chosen.event);
            for e in &mut list.entries {
                e.updated = false;
            }
            list.fully_updated = list.entries.is_empty();
            self.m[ti] = None;
        }
        // The chosen event's other assignments, plus (under the duration
        // extension) any entry whose own span now collides with the placed
        // event.
        for i in 0..self.lists.len() {
            if span.contains(&i) {
                continue;
            }
            let needs_refresh = self.m[i].is_some_and(|c| {
                c.event == chosen.event
                    || !self.schedule.is_valid_assignment(self.inst, c.event, c.interval)
            });
            if needs_refresh {
                self.refresh_m(i);
            }
        }
    }
}

/// The Corollary-1 update pass for one interval: walk entries in
/// descending stored order; drop invalid ones; refresh stale entries with
/// stored score ≥ Φ; stop at the first entry below Φ. Every entry passed
/// counts as examined. Returns the possibly-improved Φ.
fn update_interval(sel: &mut Selection<'_, '_>, i: usize, mut phi: Option<Cand>) -> Option<Cand> {
    let interval = IntervalId::new(i);

    // Interval-level skip: even the best upper bound cannot reach Φ.
    if let (Some(p), Some(front)) = (phi, sel.lists[i].entries.first()) {
        sel.engine.stats_mut().record_examined(1);
        if front.score < p.score {
            return phi;
        }
    }

    let mut idx = 0;
    let mut any_refresh = false;
    while idx < sel.lists[i].entries.len() {
        let ent = sel.lists[i].entries[idx];
        sel.engine.stats_mut().record_examined(1);
        if !sel.schedule.is_valid_assignment(sel.inst, ent.event, interval) {
            sel.lists[i].entries.remove(idx);
            continue;
        }
        if let Some(p) = phi {
            if ent.score < p.score {
                break; // sorted: everything below is below Φ too
            }
        }
        if !ent.updated {
            let fresh = sel.engine.assignment_score_update(ent.event, interval);
            let e = &mut sel.lists[i].entries[idx];
            e.score = fresh;
            e.updated = true;
            any_refresh = true;
        }
        let cand = Cand::new(sel.lists[i].entries[idx].score, interval, ent.event);
        phi = better(phi, Some(cand));
        idx += 1;
    }

    let list = &mut sel.lists[i];
    if any_refresh {
        list.sort();
    }
    list.fully_updated = list.entries.iter().all(|e| e.updated);
    sel.refresh_m(i);
    phi
}

fn run_inc(
    engine: &mut ScoringEngine<'_>,
    k: usize,
    gate: bool,
    scratch: &mut Scratch,
) -> Schedule {
    let num_intervals = engine.instance().num_intervals();
    let Scratch { table, lists, m, pending, .. } = scratch;

    // Initial pass over the full |E| × |T| universe (same as ALG).
    // Duration-extension guard: spanning events that run off the calendar
    // are skipped outright.
    //
    // **Bound-first gate** (opt-in): instead of paying the full user sweep
    // per cell up front, every candidate is seeded with the engine's
    // O(duration) separable upper bound and marked stale. The Corollary-1
    // machinery below already treats stale stored values as sound upper
    // bounds, so it lazily sweeps exactly the candidates whose bound
    // survives Φ — a candidate whose bound never reaches Φ *never pays for
    // a sweep at all* (`Stats::bound_skips` counts the deferred seeds;
    // `score_updates` shows how many were eventually swept). Selection is
    // untouched: any candidate tying or beating the final Φ has
    // `bound ≥ true ≥ Φ` and is therefore refreshed before the choice.
    score_table(engine, gate, table);
    let mut sel = Selection::seed(engine, table, gate, lists, m);

    sel.select(k, |sel, mut phi| {
        // Visit partially-updated intervals in descending front-bound order
        // so Φ tightens as early as possible (this is what lets Example 3
        // get away with a single update).
        pending.clear();
        pending.extend(
            (0..num_intervals)
                .filter(|&i| !sel.lists[i].fully_updated)
                .map(|i| (sel.lists[i].entries.first().map_or(f64::NEG_INFINITY, |e| e.score), i)),
        );
        pending.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        for &(_, i) in pending.iter() {
            phi = update_interval(sel, i, phi);
        }
    });

    sel.schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::Alg;
    use ses_core::model::running_example;
    use ses_core::{Assignment, EventId};

    /// Example 3: INC finds the same schedule as ALG with only one update
    /// (α_{e2}^{t2}) instead of ALG's four.
    #[test]
    fn running_example_trace_and_updates() {
        let inst = running_example();
        let res = Inc.run(&inst, 3);
        assert_eq!(
            res.schedule.assignments(),
            &[
                Assignment::new(EventId::new(3), IntervalId::new(1)),
                Assignment::new(EventId::new(0), IntervalId::new(0)),
                Assignment::new(EventId::new(1), IntervalId::new(1)),
            ]
        );
        assert_eq!(res.stats.score_updates, 1, "Example 3 performs exactly one update");
        assert_eq!(res.stats.score_computations, 9); // 8 initial + 1 update
    }

    /// Proposition 3 on the running example (exact schedule equality).
    #[test]
    fn matches_alg_on_running_example() {
        let inst = running_example();
        for k in 0..=4 {
            let a = Alg.run(&inst, k);
            let i = Inc.run(&inst, k);
            assert_eq!(a.schedule.assignments(), i.schedule.assignments(), "k = {k}");
            assert!((a.utility - i.utility).abs() < 1e-12);
        }
    }

    #[test]
    fn performs_no_more_computations_than_alg() {
        let inst = running_example();
        let a = Alg.run(&inst, 3);
        let i = Inc.run(&inst, 3);
        assert!(i.stats.score_computations <= a.stats.score_computations);
        assert!(i.stats.user_ops <= a.stats.user_ops);
    }

    #[test]
    fn k_zero_and_saturation() {
        let inst = running_example();
        assert!(Inc.run(&inst, 0).schedule.is_empty());
        let res = Inc.run(&inst, 99);
        assert_eq!(res.schedule.len(), 4);
        assert!(res.schedule.verify_feasible(&inst).is_ok());
    }
}

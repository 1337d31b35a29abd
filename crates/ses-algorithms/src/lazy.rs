//! `LAZY` — CELF-style lazy greedy, an ablation of INC.
//!
//! INC combines two ideas (§3.2): *incremental updating* (stale scores are
//! upper bounds, so only entries that can still win need refreshing) and
//! the *interval-based assignment organization* (per-interval lists, `M`,
//! and interval-level skipping). This scheduler keeps only the first idea,
//! in its classic "lazy greedy" form from the influence-maximization
//! literature: one global max-heap of assignments ordered by (possibly
//! stale) score; pop the top — if its score is stale, refresh and push it
//! back; if fresh, select it.
//!
//! Staleness is tracked per interval with epochs: an entry computed at
//! epoch `g` of interval `t` is current iff `t`'s epoch is still `g`
//! (intervals bump their epoch whenever they receive an assignment).
//!
//! By the same upper-bound argument as Proposition 1, LAZY selects exactly
//! ALG's schedule. Comparing LAZY with INC in the `ablation` bench isolates
//! what the interval organization buys on top of lazy evaluation.

use crate::common::{
    run_with_engine, score_table, Cand, HeapEntry, RunConfig, ScheduleResult, Scheduler, Scratch,
};
use ses_core::model::Instance;
use ses_core::schedule::Schedule;
use ses_core::scoring::ScoringEngine;
use ses_core::{EventId, IntervalId};
use std::collections::BinaryHeap;

/// The lazy greedy scheduler (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct LazyGreedy;

impl Scheduler for LazyGreedy {
    fn name(&self) -> &'static str {
        "LAZY"
    }

    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        scratch: &mut Scratch,
    ) -> ScheduleResult {
        run_with_engine(self.name(), inst, k, cfg, |engine| {
            run_lazy(engine, k, cfg.bound_gate, scratch)
        })
    }
}

fn run_lazy(
    engine: &mut ScoringEngine<'_>,
    k: usize,
    gate: bool,
    scratch: &mut Scratch,
) -> Schedule {
    let inst = engine.instance();
    let mut schedule = Schedule::new(inst);
    let num_e = inst.num_events();
    let mut epoch = vec![0u64; inst.num_intervals()];
    let span_epoch = |epoch: &[u64], e: EventId, t: IntervalId| -> u64 {
        let d = inst.events[e.index()].duration as usize;
        epoch[t.index()..t.index() + d].iter().sum()
    };

    // The heap is seeded from the shared scoring pass; its backing store
    // comes from the scratch (`into_vec` hands the capacity back at the
    // end).
    //
    // **Bound-first gate** (opt-in): entries are seeded with the engine's
    // O(duration) separable upper bound at the FORCE_REFRESH epoch instead
    // of paying `|E|·|T|` full sweeps up front. A seeded entry is swept
    // exactly when it surfaces as the heap maximum — candidates whose bound
    // never climbs that high are never swept at all (`Stats::bound_skips`
    // counts the seeds; `score_updates` the sweeps eventually paid).
    // Selections are untouched: a bound is a sound upper bound, and the
    // sentinel epoch forces a sweep before the entry can be selected.
    score_table(engine, gate, &mut scratch.table);
    scratch.heap.clear();
    scratch.heap.extend(scratch.table.iter().enumerate().filter_map(|(idx, cell)| {
        let (event, interval) = (EventId::new(idx % num_e), IntervalId::new(idx / num_e));
        cell.map(|c| HeapEntry {
            cand: Cand::new(c.score, interval, event),
            epoch: if c.exact { 0 } else { HeapEntry::FORCE_REFRESH },
        })
    }));
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::from(std::mem::take(&mut scratch.heap));

    while schedule.len() < k {
        let Some(top) = heap.pop() else { break };
        engine.stats_mut().record_examined(1);
        let (e, t) = (top.cand.event, top.cand.interval);
        if !schedule.is_valid_assignment(inst, e, t) {
            continue; // dead entry: event scheduled or slot infeasible
        }
        if top.epoch != span_epoch(&epoch, e, t) {
            // Stale (or bound-seeded): refresh and reinsert — it may no
            // longer be the top.
            let fresh = engine.assignment_score_update(e, t);
            heap.push(HeapEntry { cand: Cand::new(fresh, t, e), epoch: span_epoch(&epoch, e, t) });
            continue;
        }
        schedule.assign(inst, e, t).expect("checked valid");
        engine.apply(e, t);
        // Every spanned interval's masses changed (duration extension).
        let d = inst.events[e.index()].duration as usize;
        for cell in &mut epoch[t.index()..t.index() + d] {
            *cell += 1;
        }
    }

    scratch.heap = {
        let mut v = heap.into_vec();
        v.clear();
        v
    };
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::Alg;
    use crate::inc::Inc;
    use ses_core::model::running_example;

    #[test]
    fn matches_alg_on_running_example() {
        let inst = running_example();
        for k in 0..=4 {
            let a = Alg.run(&inst, k);
            let l = LazyGreedy.run(&inst, k);
            assert_eq!(a.schedule.assignments(), l.schedule.assignments(), "k = {k}");
        }
    }

    #[test]
    fn no_more_updates_than_alg() {
        let inst = running_example();
        let a = Alg.run(&inst, 3);
        let l = LazyGreedy.run(&inst, 3);
        assert!(l.stats.score_updates <= a.stats.score_updates);
    }

    /// INC's interval organization examines strictly less than global lazy
    /// popping on interval-structured instances — but both must agree with
    /// ALG's schedule.
    #[test]
    fn three_way_agreement() {
        let inst = running_example();
        let a = Alg.run(&inst, 4);
        let i = Inc.run(&inst, 4);
        let l = LazyGreedy.run(&inst, 4);
        assert_eq!(a.schedule.assignments(), i.schedule.assignments());
        assert_eq!(a.schedule.assignments(), l.schedule.assignments());
    }

    #[test]
    fn heap_order_matches_canonical_tie_break() {
        let mk = |s: f64, t: usize, e: usize| HeapEntry {
            cand: Cand::new(s, IntervalId::new(t), EventId::new(e)),
            epoch: 0,
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(0.5, 1, 0));
        heap.push(mk(0.5, 0, 2));
        heap.push(mk(0.9, 3, 3));
        heap.push(mk(0.5, 0, 1));
        // Pop order: highest score first, then interval asc, then event asc.
        assert_eq!(heap.pop().unwrap().cand.event, EventId::new(3));
        assert_eq!(heap.pop().unwrap().cand.event, EventId::new(1));
        assert_eq!(heap.pop().unwrap().cand.event, EventId::new(2));
        assert_eq!(heap.pop().unwrap().cand.event, EventId::new(0));
    }
}

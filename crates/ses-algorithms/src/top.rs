//! `TOP` — the minimum-computation baseline (§4.1).
//!
//! TOP computes assignment scores exactly once (the initial `|E| · |T|`
//! pass) and greedily takes the `k` best-scoring valid assignments *without
//! ever updating a score*. It lower-bounds the computation cost of any
//! scoring-based method, but ignores that co-scheduled events share an
//! interval's audience — which is why the paper observes it piling events
//! into few intervals and reporting "considerably low utility scores".

use crate::common::{
    run_with_engine, score_table, Cand, RunConfig, ScheduleResult, Scheduler, Scratch,
};
use ses_core::model::Instance;
use ses_core::schedule::Schedule;
use ses_core::scoring::ScoringEngine;
use ses_core::{EventId, IntervalId};

/// The TOP baseline (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Top;

impl Scheduler for Top {
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
        run_with_engine(self.name(), inst, k, cfg, |engine| run_top(engine, k, scratch))
    }
}

fn run_top(engine: &mut ScoringEngine<'_>, k: usize, scratch: &mut Scratch) -> Schedule {
    let inst = engine.instance();
    let mut schedule = Schedule::new(inst);
    let num_e = inst.num_events();

    score_table(engine, false, &mut scratch.table);
    let mut cands: Vec<Cand> = scratch
        .table
        .iter()
        .enumerate()
        .filter_map(|(idx, cell)| {
            let (event, interval) = (EventId::new(idx % num_e), IntervalId::new(idx / num_e));
            cell.map(|c| Cand::new(c.score, interval, event))
        })
        .collect();
    // Descending by the canonical order.
    cands.sort_unstable_by(|a, b| {
        if a.beats(b) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });

    for cand in cands {
        if schedule.len() >= k {
            break;
        }
        engine.stats_mut().record_examined(1);
        if schedule.is_valid_assignment(inst, cand.event, cand.interval) {
            schedule.assign(inst, cand.event, cand.interval).expect("checked valid");
            engine.apply(cand.event, cand.interval);
        }
    }

    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::Alg;
    use ses_core::model::running_example;
    use ses_core::Assignment;

    #[test]
    fn performs_only_initial_computations() {
        let inst = running_example();
        let res = Top.run(&inst, 3);
        assert_eq!(res.stats.score_computations, 8);
        assert_eq!(res.stats.score_updates, 0);
    }

    /// TOP takes e4@t2 (0.66), e4@t1 dead, e1@t1 (0.59)… but then e2@t2
    /// (0.57) by its *initial* score, ignoring that e4 already shares t2.
    #[test]
    fn running_example_schedule() {
        let inst = running_example();
        let res = Top.run(&inst, 3);
        assert_eq!(
            res.schedule.assignments(),
            &[
                Assignment::new(EventId::new(3), IntervalId::new(1)),
                Assignment::new(EventId::new(0), IntervalId::new(0)),
                Assignment::new(EventId::new(1), IntervalId::new(1)),
            ]
        );
    }

    #[test]
    fn never_beats_greedy_by_construction_here() {
        let inst = running_example();
        for k in 1..=4 {
            let alg = Alg.run(&inst, k);
            let top = Top.run(&inst, k);
            assert!(top.utility <= alg.utility + 1e-12, "k = {k}");
            assert!(top.schedule.verify_feasible(&inst).is_ok());
        }
    }

    #[test]
    fn fills_k_when_feasible() {
        let inst = running_example();
        assert_eq!(Top.run(&inst, 4).schedule.len(), 4);
        assert_eq!(Top.run(&inst, 2).schedule.len(), 2);
    }
}

//! The **profit-oriented SES** variant — one of the "trivial modifications"
//! §2.1 sketches: each event carries an organization cost, each attendee is
//! worth a fixed revenue, and the objective becomes expected profit
//! `Σ_e (ω_e · revenue − cost_e)` instead of raw attendance.
//!
//! The greedy machinery carries over unchanged because the profit of an
//! assignment is an affine transform of its attendance score; the only
//! structural difference is that a profit-greedy may *stop early* when every
//! remaining assignment has negative marginal profit (scheduling it would
//! lose money), whereas attendance-greedy always fills `k`.

use crate::alg;
use crate::common::{run_with_engine, RunConfig, ScheduleResult, Scheduler, Scratch};
use ses_core::model::Instance;
use ses_core::EventId;

/// Greedy maximizer of expected profit: ALG's selection loop
/// ([`alg::select`]) over profit-adjusted scores.
#[derive(Debug, Clone, Copy)]
pub struct ProfitGreedy {
    /// Revenue per expected attendee.
    pub revenue_per_attendee: f64,
    /// If true, stop as soon as the best marginal profit is negative even if
    /// fewer than `k` events are scheduled.
    pub stop_when_unprofitable: bool,
}

impl Default for ProfitGreedy {
    fn default() -> Self {
        Self { revenue_per_attendee: 1.0, stop_when_unprofitable: true }
    }
}

impl ProfitGreedy {
    /// Marginal profit of assigning `e` at `t` given the attendance gain.
    #[inline]
    fn profit(&self, inst: &Instance, e: EventId, attendance_gain: f64) -> f64 {
        attendance_gain * self.revenue_per_attendee - inst.events[e.index()].cost
    }
}

impl Scheduler for ProfitGreedy {
    fn name(&self) -> &'static str {
        "PROFIT"
    }

    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        scratch: &mut Scratch,
    ) -> ScheduleResult {
        run_with_engine(self.name(), inst, k, cfg, |engine| {
            let objective = |e, gain| self.profit(inst, e, gain);
            alg::select(engine, k, &mut scratch.table, objective, self.stop_when_unprofitable)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::Alg;
    use ses_core::model::running_example;
    use ses_core::scoring::utility::total_profit;

    #[test]
    fn zero_costs_reduce_to_alg() {
        let inst = running_example(); // all costs default to 0
        let pg = ProfitGreedy { revenue_per_attendee: 1.0, stop_when_unprofitable: true };
        let p = pg.run(&inst, 3);
        let a = Alg.run(&inst, 3);
        assert_eq!(p.schedule.assignments(), a.schedule.assignments());
    }

    #[test]
    fn stops_when_everything_loses_money() {
        let mut inst = running_example();
        for e in &mut inst.events {
            e.cost = 100.0; // no event can recoup this
        }
        let res = ProfitGreedy::default().run(&inst, 3);
        assert!(res.schedule.is_empty());
    }

    #[test]
    fn skips_only_the_unprofitable_tail() {
        let mut inst = running_example();
        // Make e3 (max attendance gain ≈ 0.10) unprofitable, others cheap.
        inst.events[2].cost = 1.0;
        let res = ProfitGreedy::default().run(&inst, 4);
        assert!(!res.schedule.is_scheduled(EventId::new(2)));
        assert_eq!(res.schedule.len(), 3);
        let profit = total_profit(&inst, &res.schedule, 1.0);
        assert!(profit > 0.0);
    }

    #[test]
    fn fills_k_when_forced() {
        let mut inst = running_example();
        for e in &mut inst.events {
            e.cost = 100.0;
        }
        let pg = ProfitGreedy { revenue_per_attendee: 1.0, stop_when_unprofitable: false };
        let res = pg.run(&inst, 3);
        assert_eq!(res.schedule.len(), 3, "forced mode still fills k");
        assert!(total_profit(&inst, &res.schedule, 1.0) < 0.0);
    }

    #[test]
    fn revenue_scaling_changes_cutoff() {
        let mut inst = running_example();
        for e in &mut inst.events {
            e.cost = 0.3;
        }
        // At revenue 1.0 only high-gain events clear cost 0.3.
        let low =
            ProfitGreedy { revenue_per_attendee: 1.0, stop_when_unprofitable: true }.run(&inst, 4);
        // At revenue 100 everything clears.
        let high = ProfitGreedy { revenue_per_attendee: 100.0, stop_when_unprofitable: true }
            .run(&inst, 4);
        assert!(low.schedule.len() < high.schedule.len());
        assert_eq!(high.schedule.len(), 4);
    }
}

//! **Figure 9** — varying the number of available locations
//! (utility 9a, time 9b) on Unf with `|T| = 65`, `k = 100`.
//!
//! Fewer locations ⇒ fewer feasible assignments ⇒ faster but (for the
//! baselines) slightly different utility; the greedy methods are nearly
//! unaffected.

use crate::report::{FigureReport, Metric};
use crate::runner::{par_rows, run_lineup_threaded, ExperimentConfig};
use ses_algorithms::SchedulerKind;
use ses_datasets::params::{InterestModel, SyntheticParams};
use ses_datasets::synthetic;

/// Swept location counts (Table 1).
pub fn sweep(config: &ExperimentConfig) -> Vec<usize> {
    if config.quick {
        vec![5, 10, 25, 50]
    } else {
        vec![5, 10, 25, 50, 70]
    }
}

/// The fixed `k` of this figure.
pub const K: usize = 100;
/// The fixed `|T|` (the paper's 65-interval setting so HOR-I is defined).
pub const INTERVALS: usize = 65;

/// Runs Figure 9 (sweep rows fan out across `config.threads`).
pub fn run(config: &ExperimentConfig) -> FigureReport {
    let kinds = SchedulerKind::paper_lineup();
    let k = config.dim(K);
    let jobs = sweep(config);
    let records = par_rows(config.row_threads(), &jobs, |&locations| {
        let params = SyntheticParams {
            num_users: config.num_users,
            num_events: config.dim(500),
            num_intervals: config.dim(INTERVALS),
            num_locations: locations,
            interest: InterestModel::Uniform,
            seed: config.seed ^ (locations as u64),
            ..SyntheticParams::default()
        };
        let inst = synthetic::generate(&params);
        run_lineup_threaded(
            "fig9",
            "Unf",
            "locations",
            locations as f64,
            &inst,
            k,
            &kinds,
            config.scheduler_threads(),
        )
    });
    FigureReport {
        id: "fig9".into(),
        title: "Varying the number of available locations (Unf, k = 100, |T| = 65)".into(),
        metrics: vec![Metric::Utility, Metric::Time],
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_lineup;

    /// §4.2.5: fewer locations ⇒ fewer feasible assignments ⇒ less work.
    /// To isolate the location effect the *same* instance is re-run with
    /// locations coarsened post-hoc (remapped mod 2), so interest/activity
    /// are identical and only the conflict structure tightens.
    #[test]
    fn fewer_locations_reduce_work() {
        let params = SyntheticParams {
            num_users: 60,
            num_events: 60,
            num_intervals: 8,
            num_locations: 20,
            interest: InterestModel::Uniform,
            seed: 11,
            ..SyntheticParams::default()
        };
        let wide = synthetic::generate(&params);
        let mut narrow = wide.clone();
        for e in &mut narrow.events {
            e.location = ses_core::LocationId::new(e.location.index() % 2);
        }

        let run = |inst: &_| {
            run_lineup("fig9", "Unf", "locations", 0.0, inst, 10, &[SchedulerKind::Alg]).remove(0)
        };
        let wide_rec = run(&wide);
        let narrow_rec = run(&narrow);
        // Tighter location constraints kill assignments earlier, so ALG
        // performs no more score work (the §4.2.5 time trend).
        assert!(
            narrow_rec.computations <= wide_rec.computations,
            "narrow {} vs wide {}",
            narrow_rec.computations,
            wide_rec.computations
        );
        // A feasible schedule still comes out of both.
        assert!(narrow_rec.utility > 0.0 && wide_rec.utility > 0.0);
    }
}

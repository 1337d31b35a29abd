//! **Figure 6** — varying the number of time intervals `|T|`
//! (utility 6a–d, time 6e–h) with `k = 100`, `|E| = 500`.

use crate::report::{FigureReport, Metric};
use crate::runner::{par_rows, run_lineup_threaded, ExperimentConfig};
use ses_algorithms::SchedulerKind;
use ses_datasets::Dataset;

/// Swept `|T|` values (Table 1's Fig-6 axis).
pub fn sweep(config: &ExperimentConfig) -> Vec<usize> {
    if config.quick {
        vec![20, 50, 100, 150]
    } else {
        vec![20, 50, 100, 150, 200, 300]
    }
}

/// The fixed `k` of this figure.
pub const K: usize = 100;

/// Runs Figure 6 (sweep rows fan out across `config.threads`).
pub fn run(config: &ExperimentConfig) -> FigureReport {
    let kinds = SchedulerKind::paper_lineup();
    let k = config.dim(K);
    let mut jobs = Vec::new();
    for dataset in Dataset::ALL {
        for &t in &config.scaled_sweep(&sweep(config)) {
            jobs.push((dataset, t));
        }
    }
    let records = par_rows(config.row_threads(), &jobs, |&(dataset, t)| {
        let tt = config.dim(t);
        let inst = dataset.build(config.num_users, 5 * k, tt, config.seed ^ (t as u64));
        run_lineup_threaded(
            "fig6",
            dataset.name(),
            "|T|",
            t as f64,
            &inst,
            k,
            &kinds,
            config.scheduler_threads(),
        )
    });
    FigureReport {
        id: "fig6".into(),
        title: "Varying the number of time intervals |T| (k = 100, |E| = 500)".into(),
        metrics: vec![Metric::Utility, Metric::Time],
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_lineup;

    /// §4.2.2: utility increases with |T| (fewer parallel events per
    /// interval + more candidate assignments).
    #[test]
    fn utility_grows_with_intervals() {
        let kinds = [SchedulerKind::Hor];
        let mut utilities = Vec::new();
        for t in [4usize, 16] {
            let inst = Dataset::Unf.build(80, 60, t, 3);
            let recs = run_lineup("fig6", "Unf", "|T|", t as f64, &inst, 12, &kinds);
            utilities.push(recs[0].utility);
        }
        assert!(utilities[1] > utilities[0], "more intervals must help: {utilities:?}");
    }
}

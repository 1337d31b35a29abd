//! **Figure 5** — varying the number of scheduled events `k`
//! (utility 5a–d, computations 5e–h, time 5i–l) on all four datasets.
//!
//! Per Table 1 the other dimensions track `k`: `|E| = 5k`, `|T| = 3k/2`.

use crate::report::{FigureReport, Metric};
use crate::runner::{par_rows, run_lineup_threaded, ExperimentConfig};
use ses_algorithms::SchedulerKind;
use ses_datasets::Dataset;

/// The swept `k` values (quick mode truncates the heaviest points).
pub fn sweep(config: &ExperimentConfig) -> Vec<usize> {
    if config.quick {
        vec![50, 100, 200]
    } else {
        vec![50, 100, 200, 500]
    }
}

/// Runs Figure 5. Sweep rows fan out across `config.threads` workers; the
/// report is byte-identical for every width (rows stay in input order).
pub fn run(config: &ExperimentConfig) -> FigureReport {
    let kinds = SchedulerKind::paper_lineup();
    let mut jobs = Vec::new();
    // Dedup after scaling: at small dim_scale two k values can collapse to
    // the same scheduled size, which would collide as duplicate x points.
    for dataset in Dataset::ALL {
        for &k in &config.scaled_sweep(&sweep(config)) {
            jobs.push((dataset, k));
        }
    }
    let records = par_rows(config.row_threads(), &jobs, |&(dataset, k)| {
        let kk = config.dim(k);
        let inst =
            dataset.build(config.num_users, 5 * kk, (3 * kk / 2).max(1), config.seed ^ (k as u64));
        run_lineup_threaded(
            "fig5",
            dataset.name(),
            "k",
            k as f64,
            &inst,
            kk,
            &kinds,
            config.scheduler_threads(),
        )
    });
    FigureReport {
        id: "fig5".into(),
        title: "Varying the number of scheduled events k (|E| = 5k, |T| = 3k/2)".into(),
        metrics: vec![Metric::Utility, Metric::Computations, Metric::Time],
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_lineup;

    #[test]
    fn smoke_run_shapes() {
        let mut config = ExperimentConfig::smoke();
        config.num_users = 60;
        // Only the smallest sweep point for the smoke test.
        let kinds = SchedulerKind::paper_lineup();
        let inst = Dataset::Unf.build(config.num_users, 100, 30, 1);
        let recs = run_lineup("fig5", "Unf", "k", 20.0, &inst, 20, &kinds);
        assert_eq!(recs.len(), kinds.len());

        let get = |name: &str| recs.iter().find(|r| r.algorithm == name).unwrap();
        // The headline orderings of Figs 5e–h:
        assert!(get("ALG").computations >= get("INC").computations);
        assert!(get("ALG").computations >= get("HOR").computations);
        assert!(get("TOP").computations <= get("HOR-I").computations);
        // INC ≡ ALG utility (Prop. 3); HOR ≥ RAND in utility on any
        // non-degenerate instance.
        assert!((get("ALG").utility - get("INC").utility).abs() < 1e-9);
        assert!(get("HOR").utility >= get("RAND").utility);
    }
}

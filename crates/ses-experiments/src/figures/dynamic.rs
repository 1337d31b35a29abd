//! **Dynamic** (beyond the paper) — incremental repair vs full recompute
//! on a churning op stream, sweeping the structural-churn rate.
//!
//! For each churn level a seeded [`ses_datasets::ops`] stream is replayed
//! twice over the same Unf base instance: once through the warm-started
//! [`StreamScheduler`] (repair), once as a cold rebuild per op (the full
//! recompute a static system would run). The two paths produce identical
//! schedules and utilities by construction; the figure records the *work*
//! — assignments examined, score user-ops, wall time — aggregated over the
//! stream, so the `STREAM`/`REBUILD` ratio per metric is the dynamic
//! subsystem's headline number (EXPERIMENTS.md tracks it).

use crate::report::{FigureReport, Metric, RunRecord};
use crate::runner::{par_rows, ExperimentConfig};
use ses_algorithms::stream::StreamScheduler;
use ses_core::delta;
use ses_core::stats::Stats;
use ses_datasets::ops::{self, OpStreamParams};
use ses_datasets::Dataset;

/// The swept structural-churn rates (probability an op is structural
/// rather than interest drift).
pub const CHURN_LEVELS: [f64; 4] = [0.0, 0.2, 0.5, 0.9];

/// The fixed `k` of this figure (before `dim` scaling).
pub const K: usize = 20;
/// `|E|` of the base instance (before `dim` scaling).
pub const EVENTS: usize = 100;
/// `|T|` of the base instance (before `dim` scaling).
pub const INTERVALS: usize = 15;

/// Ops per churn level.
pub fn ops_per_level(config: &ExperimentConfig) -> usize {
    if config.quick {
        40
    } else {
        160
    }
}

/// Runs the dynamic figure (churn levels fan out across `config.threads`).
pub fn run(config: &ExperimentConfig) -> FigureReport {
    let k = config.dim(K);
    let events = config.dim(EVENTS);
    let intervals = config.dim(INTERVALS);
    let num_ops = ops_per_level(config);
    let records = par_rows(config.row_threads(), &CHURN_LEVELS, |&churn| {
        let base = Dataset::Unf.build(config.num_users, events, intervals, config.seed ^ 0xD1);
        let params = OpStreamParams::default()
            .with_ops(num_ops)
            .with_churn(churn)
            .with_seed(config.seed ^ (churn * 100.0) as u64);
        let stream_ops = ops::generate(&base, &params);
        let threads = config.scheduler_threads();

        // Incremental: one warm scheduler repairs across the whole stream.
        let mut live = base.clone();
        let mut stream = StreamScheduler::new(&live, k, threads);
        let mut repair = Stats::new();
        let mut repair_ms = 0.0;
        for op in &stream_ops {
            let rep = stream.apply(&mut live, op).expect("generated ops are valid");
            repair += rep.stats;
            repair_ms += rep.time_ms;
        }

        // Recompute: a cold build per op on the materialized instance.
        let mut mat = base;
        let mut rebuild = Stats::new();
        let mut rebuild_ms = 0.0;
        let mut rebuild_utility = f64::NAN;
        for op in &stream_ops {
            delta::apply(&mut mat, op).expect("generated ops are valid");
            let cold = StreamScheduler::new(&mat, k, threads);
            rebuild += cold.last_repair().stats;
            rebuild_ms += cold.last_repair().time_ms;
            rebuild_utility = cold.utility();
        }
        // Result-equivalence is the subsystem's core guarantee — enforce it
        // in real (release) experiment runs, not just in tests.
        assert_eq!(
            stream.utility().to_bits(),
            rebuild_utility.to_bits(),
            "churn {churn}: incremental repair diverged from full recompute"
        );

        let record = |algorithm: &str, stats: &Stats, utility: f64, time_ms: f64| RunRecord {
            figure: "dynamic".into(),
            dataset: "Unf".into(),
            algorithm: algorithm.into(),
            x_label: "churn".into(),
            x: churn,
            k,
            num_events: mat.num_events(),
            num_intervals: mat.num_intervals(),
            num_users: mat.num_users(),
            utility,
            computations: stats.user_ops,
            examined: stats.assignments_examined,
            time_ms,
            heap_bytes: 0,
        };
        vec![
            record("STREAM", &repair, stream.utility(), repair_ms),
            record("REBUILD", &rebuild, rebuild_utility, rebuild_ms),
        ]
    });
    FigureReport {
        id: "dynamic".into(),
        title: format!(
            "Dynamic op streams: incremental repair vs full recompute \
             (Unf, k = {K}, |E| = {EVENTS}, |T| = {INTERVALS}, {} ops/level)",
            ops_per_level(config)
        ),
        metrics: vec![Metric::Examined, Metric::Computations, Metric::Time],
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::x_eq;

    /// The headline claim: across every churn level, incremental repair
    /// examines and computes strictly less than per-op recompute while
    /// landing on the same final utility.
    #[test]
    fn stream_beats_rebuild_at_every_churn_level() {
        let config = ExperimentConfig::smoke();
        let report = run(&config);
        assert_eq!(report.records.len(), 2 * CHURN_LEVELS.len());
        for &churn in &CHURN_LEVELS {
            let stream = report.cell("Unf", "STREAM", churn).unwrap();
            let rebuild = report.cell("Unf", "REBUILD", churn).unwrap();
            assert!(
                stream.examined < rebuild.examined,
                "churn {churn}: STREAM examined {} !< REBUILD {}",
                stream.examined,
                rebuild.examined
            );
            assert!(
                stream.computations < rebuild.computations,
                "churn {churn}: STREAM user-ops {} !< REBUILD {}",
                stream.computations,
                rebuild.computations
            );
            assert_eq!(stream.utility.to_bits(), rebuild.utility.to_bits());
        }
        // Work should generally rise with churn for the incremental path.
        let xs = report.xs("Unf");
        assert!(xs.iter().zip(&CHURN_LEVELS).all(|(&a, &b)| x_eq(a, b)));
    }
}

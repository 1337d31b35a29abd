//! **Windowed** (beyond the paper) — coalesced windowed ingestion vs
//! op-at-a-time repair on a redundant bursty feed, sweeping the window
//! size.
//!
//! For each window size the same seeded bursty feed (redundant follower
//! drifts layered over a churn backbone, see
//! [`ses_datasets::ops::generate_bursts`]) is ingested twice from the
//! same warm Unf base: once one coalesced window at a time through
//! [`StreamScheduler::repair_batch`], once op-at-a-time through
//! `apply`. The two paths land on bit-identical schedules and utilities
//! by construction — the figure records the *work* (assignments
//! examined, score user-ops, wall time) and the per-row ops/sec ratio is
//! the windowing subsystem's headline number (EXPERIMENTS.md tracks it).
//! Window size 1 is the degenerate case: every window is a single op, so
//! the coalesced path pays the coalescing pass for no batching win.

use crate::report::{FigureReport, Metric, RunRecord};
use crate::runner::{par_rows, ExperimentConfig};
use ses_algorithms::stream::StreamScheduler;
use ses_core::delta::DeltaOp;
use ses_core::stats::Stats;
use ses_datasets::ops::{self, BurstParams, OpStreamParams};
use ses_datasets::Dataset;

/// The swept window sizes (ops per coalesced flush).
pub const WINDOW_SIZES: [usize; 4] = [1, 4, 16, 64];

/// The fixed `k` of this figure (before `dim` scaling).
pub const K: usize = 20;
/// `|E|` of the base instance (before `dim` scaling).
pub const EVENTS: usize = 100;
/// `|T|` of the base instance (before `dim` scaling).
pub const INTERVALS: usize = 15;
/// Redundant-follower pressure of the feed.
pub const REDUNDANCY: f64 = 0.6;

/// Backbone ops of the shared feed (followers inflate the actual count).
pub fn backbone_ops(config: &ExperimentConfig) -> usize {
    if config.quick {
        60
    } else {
        200
    }
}

/// Runs the windowed figure (window sizes fan out across
/// `config.threads`).
pub fn run(config: &ExperimentConfig) -> FigureReport {
    let k = config.dim(K);
    let events = config.dim(EVENTS);
    let intervals = config.dim(INTERVALS);
    let num_ops = backbone_ops(config);
    let records = par_rows(config.row_threads(), &WINDOW_SIZES, |&window| {
        let base = Dataset::Unf.build(config.num_users, events, intervals, config.seed ^ 0xF1);
        let params = OpStreamParams::default()
            .with_ops(num_ops)
            .with_churn(0.3)
            .with_seed(config.seed ^ 0xFEED);
        let burst = BurstParams::default().with_ops(params).with_redundancy(REDUNDANCY);
        let feed: Vec<DeltaOp> =
            ops::generate_bursts(&base, &burst).into_iter().map(|t| t.op).collect();
        let threads = config.scheduler_threads();

        // Windowed: one coalesced batch per window flush.
        let mut windowed_inst = base.clone();
        let mut windowed = StreamScheduler::new(&windowed_inst, k, threads);
        let mut batched = Stats::new();
        let mut batched_ms = 0.0;
        for chunk in feed.chunks(window) {
            let rep = windowed
                .repair_batch(&mut windowed_inst, chunk)
                .expect("generated windows are valid");
            batched += rep.stats;
            batched_ms += rep.time_ms;
        }

        // Op-at-a-time: the same feed through the per-op repair path.
        let mut serial_inst = base;
        let mut serial = StreamScheduler::new(&serial_inst, k, threads);
        let mut per_op = Stats::new();
        let mut per_op_ms = 0.0;
        for op in &feed {
            let rep = serial.apply(&mut serial_inst, op).expect("generated ops are valid");
            per_op += rep.stats;
            per_op_ms += rep.time_ms;
        }
        // Bit-identity is the subsystem's core guarantee — enforce it in
        // real (release) experiment runs, not just in tests.
        assert!(
            windowed_inst == serial_inst,
            "window {window}: coalesced ingestion diverged from op-at-a-time"
        );
        assert_eq!(
            windowed.utility().to_bits(),
            serial.utility().to_bits(),
            "window {window}: utility bits diverged"
        );

        let record = |algorithm: &str, stats: &Stats, utility: f64, time_ms: f64| RunRecord {
            figure: "windowed".into(),
            dataset: "Unf".into(),
            algorithm: algorithm.into(),
            x_label: "window".into(),
            x: window as f64,
            k,
            num_events: serial_inst.num_events(),
            num_intervals: serial_inst.num_intervals(),
            num_users: serial_inst.num_users(),
            utility,
            computations: stats.user_ops,
            examined: stats.assignments_examined,
            time_ms,
            heap_bytes: 0,
        };
        vec![
            record("WINDOWED", &batched, windowed.utility(), batched_ms),
            record("OP-AT-A-TIME", &per_op, serial.utility(), per_op_ms),
        ]
    });
    FigureReport {
        id: "windowed".into(),
        title: format!(
            "Windowed ingestion: coalesced flush vs op-at-a-time repair \
             (Unf, k = {K}, |E| = {EVENTS}, |T| = {INTERVALS}, redundancy {REDUNDANCY}, \
             {} backbone ops)",
            backbone_ops(config)
        ),
        metrics: vec![Metric::Examined, Metric::Computations, Metric::Time],
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::x_eq;

    /// The headline claim: at every real window size (> 1), coalesced
    /// ingestion examines and computes less than op-at-a-time repair of
    /// the same feed while landing on the same final utility.
    #[test]
    fn windowed_beats_op_at_a_time_beyond_window_one() {
        let config = ExperimentConfig::smoke();
        let report = run(&config);
        assert_eq!(report.records.len(), 2 * WINDOW_SIZES.len());
        for &window in &WINDOW_SIZES {
            let x = window as f64;
            let windowed = report.cell("Unf", "WINDOWED", x).unwrap();
            let serial = report.cell("Unf", "OP-AT-A-TIME", x).unwrap();
            assert_eq!(windowed.utility.to_bits(), serial.utility.to_bits());
            if window > 1 {
                assert!(
                    windowed.examined < serial.examined,
                    "window {window}: WINDOWED examined {} !< OP-AT-A-TIME {}",
                    windowed.examined,
                    serial.examined
                );
                assert!(
                    windowed.computations < serial.computations,
                    "window {window}: WINDOWED user-ops {} !< OP-AT-A-TIME {}",
                    windowed.computations,
                    serial.computations
                );
            }
        }
        let xs = report.xs("Unf");
        assert!(xs.iter().zip(&WINDOW_SIZES).all(|(&a, &b)| x_eq(a, b as f64)));
    }
}

//! **Scale** (beyond the paper) — build time and resident interest bytes
//! vs `|U|` across the three storage backends.
//!
//! The paper's Table 1 runs the user axis to 1M; the figure benches stop
//! at laptop scale. This figure opens the axis structurally: every sweep
//! point builds the *same* quantized Zipf instance (via the counter-based
//! streaming generator, [`ses_datasets::scale::build`]) in the dense,
//! sparse, and compressed layouts, then runs one INC schedule on each.
//! The schedules must land on bit-identical utilities — the storage
//! abstraction's core guarantee, enforced here in real experiment runs,
//! not just in tests — so the only things that vary across a row are the
//! build time and the resident bytes the layout holds the interest in.
//! (The committed `scale_100k`/`scale_1m` bench targets pin the 100k/1M
//! absolute numbers; this figure tracks the *shape* at harness scale.)

use crate::report::{FigureReport, Metric, RunRecord};
use crate::runner::{par_rows, ExperimentConfig};
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_core::model::StorageKind;
use ses_datasets::{scale, InterestModel, SyntheticParams};
use std::time::Instant;

/// The compared interest layouts, in report order.
pub const BACKENDS: [StorageKind; 3] =
    [StorageKind::Dense, StorageKind::Sparse, StorageKind::Compressed];

/// The fixed `k` of this figure (before `dim` scaling).
pub const K: usize = 20;
/// Quantization levels — the compressed layout's dictionary cap.
pub const LEVELS: usize = 256;

/// Swept user counts: ×5, ×25, ×100 of the configured base (full mode adds
/// ×250), echoing the 10K→1M ratios of Table 1's user axis.
pub fn sweep(config: &ExperimentConfig) -> Vec<usize> {
    let base = config.num_users.max(20);
    let mut s = vec![base * 5, base * 25, base * 100];
    if !config.quick {
        s.push(base * 250);
    }
    s
}

/// Runs the scale figure (sweep rows fan out across `config.threads`).
pub fn run(config: &ExperimentConfig) -> FigureReport {
    let k = config.dim(K);
    let events = config.dim(5 * K);
    let intervals = config.dim(3 * K / 2);
    let records = par_rows(config.row_threads(), &sweep(config), |&users| {
        let params = SyntheticParams {
            num_users: users,
            num_events: events,
            num_intervals: intervals,
            competing_per_interval: (1, 4),
            interest: InterestModel::Zipf { s: 2.0 },
            interest_levels: LEVELS,
            seed: config.seed ^ users as u64,
            ..SyntheticParams::default()
        };
        let threads = config.scheduler_threads();
        let mut row = Vec::new();
        let mut utility_bits: Option<u64> = None;
        for kind in BACKENDS {
            let start = Instant::now();
            let inst = scale::build(&params, kind);
            let build_ms = start.elapsed().as_secs_f64() * 1e3;
            let res = SchedulerKind::Inc.run_threaded(&inst, k, threads);
            // Bit-identity across layouts is the storage abstraction's
            // contract; a divergence here is a correctness bug, not noise.
            let bits = res.utility.to_bits();
            match utility_bits {
                None => utility_bits = Some(bits),
                Some(expect) => assert_eq!(
                    expect, bits,
                    "|U|={users}: {kind} INC utility diverged from {}",
                    BACKENDS[0]
                ),
            }
            row.push(RunRecord {
                figure: "scale".into(),
                dataset: "Zip".into(),
                algorithm: kind.name().to_uppercase(),
                x_label: "|U|".into(),
                x: users as f64,
                k,
                num_events: inst.num_events(),
                num_intervals: inst.num_intervals(),
                num_users: users,
                utility: res.utility,
                computations: res.stats.user_ops,
                examined: res.stats.assignments_examined,
                time_ms: build_ms,
                heap_bytes: inst.event_interest.heap_bytes() as u64,
            });
        }
        row
    });
    FigureReport {
        id: "scale".into(),
        title: format!(
            "Interest-storage backends vs |U| (Zip s = 2, k = {K}, |E| = {}k, \
             {LEVELS} interest levels): build time and resident interest bytes; \
             INC utility is bit-identical across backends by construction",
            5
        ),
        metrics: vec![Metric::Time, Metric::Memory, Metric::Utility],
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::x_eq;

    /// The headline claims at smoke scale: one record per backend per sweep
    /// point, bit-identical utilities across backends (asserted inside
    /// `run` as well), and the compressed layout resident-byte win over
    /// sparse at the largest sweep point.
    #[test]
    fn backends_agree_and_compressed_wins_on_bytes() {
        let config = ExperimentConfig::smoke();
        let report = run(&config);
        let sweep = sweep(&config);
        assert_eq!(report.records.len(), BACKENDS.len() * sweep.len());
        for &users in &sweep {
            let x = users as f64;
            let dense = report.cell("Zip", "DENSE", x).unwrap();
            let sparse = report.cell("Zip", "SPARSE", x).unwrap();
            let compressed = report.cell("Zip", "COMPRESSED", x).unwrap();
            assert_eq!(dense.utility.to_bits(), sparse.utility.to_bits());
            assert_eq!(dense.utility.to_bits(), compressed.utility.to_bits());
            assert!(dense.heap_bytes > 0 && compressed.heap_bytes > 0);
        }
        // Zipf columns are full (every user holds a nonzero draw), so u16
        // codes beat both 8-byte dense cells and 12-byte sparse entries
        // once the matrix dwarfs the dictionary + block metadata.
        let largest = *sweep.last().unwrap() as f64;
        let sparse = report.cell("Zip", "SPARSE", largest).unwrap();
        let compressed = report.cell("Zip", "COMPRESSED", largest).unwrap();
        assert!(
            compressed.heap_bytes * 3 <= sparse.heap_bytes,
            "compressed {} B vs sparse {} B",
            compressed.heap_bytes,
            sparse.heap_bytes
        );
        let xs = report.xs("Zip");
        assert!(xs.iter().zip(&sweep).all(|(&a, &b)| x_eq(a, b as f64)));
    }
}

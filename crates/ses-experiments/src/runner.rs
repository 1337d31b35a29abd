//! Shared machinery for figure runners: scaling knobs and the
//! instance → lineup → records pipeline.

use crate::report::RunRecord;
use serde::{Deserialize, Serialize};
use ses_algorithms::{RunConfig, SchedulerKind, SesService};
use ses_core::model::Instance;
use ses_core::parallel::{par_chunks_mut, Threads};

/// Laptop-scaling knobs for the experiment suite.
///
/// The paper runs up to `|U| = 1M` on a Xeon server with multi-hour budgets;
/// the harness reproduces every figure's *shape* at a configurable user
/// scale. `quick` additionally truncates the heaviest sweep points (e.g.
/// `k = 500`) so the full suite finishes in minutes; `--full` style runs
/// disable it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Users per instance (the paper's default is 100K; harness default is
    /// laptop-sized).
    pub num_users: usize,
    /// Truncate the heaviest sweep points.
    pub quick: bool,
    /// Base RNG seed; sweep points derive their own seeds from it.
    pub seed: u64,
    /// Multiplier on the structural dimensions (`k`, `|E|`, `|T|` sweep
    /// values). `1.0` reproduces the paper's axes; smoke tests use smaller
    /// factors to run every figure end-to-end in milliseconds.
    pub dim_scale: f64,
    /// Instance-level fan-out: how many sweep rows (dataset × sweep-point
    /// cells) run concurrently. `1` = sequential reference, `0` = machine
    /// width. Reports are byte-identical for every value — rows land in
    /// input order, and each scheduler run inside a parallel sweep is
    /// pinned to one thread (the pool does not nest; see
    /// [`scheduler_threads`](Self::scheduler_threads)).
    #[serde(default = "default_threads")]
    pub threads: usize,
}

/// Serde default for [`ExperimentConfig::threads`]: reports produced before
/// the field existed deserialize as sequential runs.
fn default_threads() -> usize {
    1
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self { num_users: 400, quick: true, seed: 0x5E5, dim_scale: 1.0, threads: 1 }
    }
}

impl ExperimentConfig {
    /// A configuration for CI-speed smoke runs: few users, truncated sweeps,
    /// structural dimensions at one-tenth of the paper's.
    pub fn smoke() -> Self {
        Self { num_users: 60, quick: true, seed: 0x5E5, dim_scale: 0.1, threads: 1 }
    }

    /// Overrides the user count.
    #[must_use]
    pub fn with_users(mut self, n: usize) -> Self {
        self.num_users = n;
        self
    }

    /// Overrides the sweep fan-out width (`0` = machine width).
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// The resolved row-level fan-out width.
    pub fn row_threads(&self) -> Threads {
        Threads::new(self.threads)
    }

    /// Thread count for each scheduler run inside a sweep: one thread when
    /// rows fan out (keeping total parallelism at `--threads` and avoiding
    /// nested pool use), the ambient default otherwise. Either way results
    /// are bit-identical — only wall-clock allocation differs.
    pub fn scheduler_threads(&self) -> Threads {
        if self.row_threads().get() > 1 {
            Threads::sequential()
        } else {
            Threads::default()
        }
    }

    /// Disables quick-mode truncation.
    #[must_use]
    pub fn full(mut self) -> Self {
        self.quick = false;
        self
    }

    /// Applies `dim_scale` to a structural dimension (floor 2 so degenerate
    /// instances never arise).
    pub fn dim(&self, n: usize) -> usize {
        ((n as f64 * self.dim_scale).round() as usize).max(2)
    }

    /// Applies [`dim`](Self::dim) to a whole sweep axis, dropping raw
    /// values whose scaled dimension collides with an earlier one — an
    /// aggressive `dim_scale` (or the floor) can map two distinct sweep
    /// points to the same size, which would duplicate x points in reports.
    /// Each drop is reported on stderr.
    pub fn scaled_sweep(&self, raw: &[usize]) -> Vec<usize> {
        let mut kept = Vec::with_capacity(raw.len());
        let mut dims: Vec<usize> = Vec::with_capacity(raw.len());
        for &r in raw {
            let d = self.dim(r);
            if dims.contains(&d) {
                eprintln!(
                    "warning: sweep point {r} scales to duplicate dimension {d} \
                     (dim_scale = {}); dropping it",
                    self.dim_scale
                );
            } else {
                dims.push(d);
                kept.push(r);
            }
        }
        kept
    }
}

/// Runs every scheduler in `kinds` on `inst` and converts the results into
/// [`RunRecord`]s for the given figure/dataset/sweep-point, with the
/// ambient thread resolution.
#[allow(clippy::too_many_arguments)]
pub fn run_lineup(
    figure: &str,
    dataset: &str,
    x_label: &str,
    x: f64,
    inst: &Instance,
    k: usize,
    kinds: &[SchedulerKind],
) -> Vec<RunRecord> {
    run_lineup_threaded(figure, dataset, x_label, x, inst, k, kinds, Threads::default())
}

/// [`run_lineup`] with an explicit per-scheduler thread count (used by
/// parallel sweeps to pin each row to one thread).
///
/// The lineup is a thin client of the session service: one [`SesService`]
/// per call owns the warm scratch pool, so the schedulers after the first
/// run allocation-free. Records are bit-identical to direct
/// `run_configured` calls (the service contract, enforced by
/// `tests/service_equivalence.rs`). The service owns its instance, so each
/// row pays one `Instance` clone — `O(|U|·|E|)`, dwarfed by the lineup's
/// `|T|`-factor scoring sweeps over the same matrices — in exchange for
/// the single code path every entry point now shares.
#[allow(clippy::too_many_arguments)]
pub fn run_lineup_threaded(
    figure: &str,
    dataset: &str,
    x_label: &str,
    x: f64,
    inst: &Instance,
    k: usize,
    kinds: &[SchedulerKind],
    threads: Threads,
) -> Vec<RunRecord> {
    let mut service = SesService::new(inst.clone()).with_threads(threads);
    kinds
        .iter()
        .map(|kind| {
            let res = service.schedule_kind(*kind, k, RunConfig::threaded(threads));
            RunRecord {
                figure: figure.to_string(),
                dataset: dataset.to_string(),
                algorithm: res.algorithm.to_string(),
                x_label: x_label.to_string(),
                x,
                k,
                num_events: inst.num_events(),
                num_intervals: inst.num_intervals(),
                num_users: inst.num_users(),
                utility: res.utility,
                computations: res.stats.user_ops,
                examined: res.stats.assignments_examined,
                time_ms: res.elapsed.as_secs_f64() * 1e3,
                heap_bytes: 0,
            }
        })
        .collect()
}

/// Runs one closure per sweep row across `threads` workers and concatenates
/// the produced records **in input order** — a parallel sweep emits a
/// byte-identical report to the sequential one (golden-file tested), it
/// just finishes sooner. Each row job should run its schedulers with
/// [`ExperimentConfig::scheduler_threads`] so pools never nest.
pub fn par_rows<J, F>(threads: Threads, jobs: &[J], run: F) -> Vec<RunRecord>
where
    J: Sync,
    F: Fn(&J) -> Vec<RunRecord> + Sync,
{
    if threads.is_sequential() || jobs.len() < 2 {
        return jobs.iter().flat_map(&run).collect();
    }
    let mut slots: Vec<Vec<RunRecord>> = Vec::new();
    slots.resize_with(jobs.len(), Vec::new);
    par_chunks_mut(threads, &mut slots, 1, |i, slot| slot[0] = run(&jobs[i]));
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_core::model::running_example;

    #[test]
    fn lineup_produces_one_record_per_kind() {
        let inst = running_example();
        let kinds = SchedulerKind::paper_lineup();
        let recs = run_lineup("figX", "RE", "k", 3.0, &inst, 3, &kinds);
        assert_eq!(recs.len(), kinds.len());
        let algs: Vec<&str> = recs.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(algs, vec!["ALG", "INC", "HOR", "HOR-I", "TOP", "RAND"]);
        for r in &recs {
            assert_eq!(r.k, 3);
            assert_eq!(r.num_events, 4);
            assert!(r.utility >= 0.0);
        }
    }

    #[test]
    fn config_builders() {
        let c = ExperimentConfig::default().with_users(99).full().with_threads(3);
        assert_eq!(c.num_users, 99);
        assert!(!c.quick);
        assert_eq!(c.row_threads().get(), 3);
        // Parallel sweeps pin scheduler runs to one thread (no nesting).
        assert!(c.scheduler_threads().is_sequential());
    }

    /// Regression: quick-mode scaling mapping two sweep dims to one value
    /// must deduplicate instead of producing colliding sweep points.
    #[test]
    fn scaled_sweep_drops_collisions() {
        // 20 → 2 (floor), 50 → 2, 100 → 2, 150 → 3.
        let c = ExperimentConfig { dim_scale: 0.02, ..ExperimentConfig::default() };
        assert_eq!(c.scaled_sweep(&[20, 50, 100, 150]), vec![20, 150]);
        // At the paper's scale nothing is dropped.
        let c = ExperimentConfig { dim_scale: 1.0, ..c };
        assert_eq!(c.scaled_sweep(&[20, 50, 100, 150]), vec![20, 50, 100, 150]);
    }

    #[test]
    fn par_rows_preserves_input_order() {
        let inst = running_example();
        let kinds = [SchedulerKind::Hor, SchedulerKind::Top];
        let jobs: Vec<usize> = (1..=4).collect();
        let run_jobs = |threads: Threads| {
            par_rows(threads, &jobs, |&k| {
                run_lineup_threaded(
                    "figX",
                    "RE",
                    "k",
                    k as f64,
                    &inst,
                    k,
                    &kinds,
                    Threads::sequential(),
                )
            })
        };
        let seq = run_jobs(Threads::sequential());
        let par = run_jobs(Threads::new(4));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!((a.x, a.algorithm.as_str()), (b.x, b.algorithm.as_str()));
            assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "x = {} {}", a.x, a.algorithm);
            assert_eq!(a.computations, b.computations);
            assert_eq!(a.examined, b.examined);
        }
    }
}

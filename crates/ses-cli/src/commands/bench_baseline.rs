//! `ses bench-baseline` — record (or check) the benchmark trajectory.
//!
//! **Record mode** (default): runs the requested criterion bench targets
//! with `CRITERION_JSON` set, collects every benchmark's median/mean/min,
//! and appends one run — annotated with rustc version, git commit, and a
//! free-form label — to `BENCH_BASELINE.json` at the repository root. The
//! committed file is the performance trajectory of the project: every entry
//! is a snapshot that later optimizations (and regressions) are measured
//! against.
//!
//! **Check mode** (`--check FACTOR`): runs the targets fresh (or, with
//! `--from FILE`, reuses the last run recorded in FILE) and compares each
//! benchmark's median against the *most recent recorded run that holds
//! it* in the baseline file. Exits non-zero if any benchmark regressed by
//! more than `FACTOR`× — the CI perf-smoke gate (generous factors absorb
//! noisy runners and runner-vs-recording-machine hardware gaps; the CI
//! gate uses 2.0).

use crate::args::Args;
use serde::{Deserialize, Serialize};
use ses_core::error::ServiceError;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The fifteen criterion bench targets of `crates/bench`. The `scale_*`
/// and `persist_restore` targets build 100k/1M-user instances — minutes,
/// not seconds — so the CI perf-smoke gate lists its targets explicitly
/// rather than taking this default set.
const ALL_TARGETS: &[&str] = &[
    "micro_scoring",
    "constrained_feasibility",
    "fig5_vary_k",
    "fig6_vary_intervals",
    "fig7_vary_events",
    "fig8_vary_users",
    "fig9_vary_locations",
    "fig10a_worst_case",
    "fig10b_search_space",
    "ablation",
    "dynamic_stream",
    "windowed_stream",
    "scale_100k",
    "scale_1m",
    "persist_restore",
    "serve_throughput",
];

/// One benchmark's timing summary — the schema of the JSON lines the
/// vendored criterion emits under `CRITERION_JSON`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchResult {
    /// Full benchmark id, e.g. `micro_scoring/assignment_score/dense/t1`.
    id: String,
    /// Median per-sample time in nanoseconds (the comparison metric).
    median_ns: u64,
    /// Mean per-sample time in nanoseconds.
    mean_ns: u64,
    /// Minimum per-sample time in nanoseconds.
    min_ns: u64,
    /// Number of timed samples.
    samples: u64,
}

/// One recorded baseline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BaselineRun {
    /// Free-form annotation (`--label`), e.g. "pre-optimization".
    label: String,
    /// `git rev-parse --short HEAD` at record time ("unknown" outside git).
    commit: String,
    /// `rustc --version` at record time.
    rustc: String,
    /// Unix seconds at record time.
    recorded_at_unix: u64,
    /// Bench targets included in this run.
    targets: Vec<String>,
    /// Every benchmark's summary, in execution order.
    results: Vec<BenchResult>,
}

/// The committed `BENCH_BASELINE.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BaselineFile {
    /// Format version.
    schema: u32,
    /// Recorded runs, oldest first.
    runs: Vec<BaselineRun>,
}

/// Executes the `bench-baseline` subcommand. Argument mistakes surface as
/// usage errors (exit 2); bench failures and regression-gate trips as
/// runtime failures (exit 1).
pub fn exec(args: &Args) -> Result<(), ServiceError> {
    let out = PathBuf::from(args.str_flag("out", "BENCH_BASELINE.json"));
    let label = args.str_flag("label", "snapshot");
    let targets: Vec<String> = match args.opt_flag("targets") {
        None => ALL_TARGETS.iter().map(|s| s.to_string()).collect(),
        Some(spec) => spec.split(',').map(|s| s.trim().to_string()).collect(),
    };
    for t in &targets {
        if !ALL_TARGETS.contains(&t.as_str()) {
            return Err(ServiceError::invalid(format!(
                "unknown bench target '{t}' (known: {})",
                ALL_TARGETS.join(", ")
            )));
        }
    }

    // `--from FILE` reuses the last run recorded in FILE instead of
    // benching again — the CI perf-smoke job records once (artifact) and
    // checks from that record, halving its bench time.
    let results = match args.opt_flag("from") {
        Some(path) => {
            let file = load_baseline(Path::new(path))
                .map_err(ServiceError::failed)?
                .ok_or_else(|| ServiceError::invalid(format!("--from: no baseline at {path}")))?;
            file.runs
                .last()
                .ok_or_else(|| ServiceError::invalid("--from: file holds no runs"))?
                .results
                .clone()
        }
        None => run_targets(&targets).map_err(ServiceError::failed)?,
    };
    match args.opt_flag("check") {
        Some(factor) => {
            let factor: f64 = factor
                .parse()
                .map_err(|_| ServiceError::invalid(format!("--check: cannot parse '{factor}'")))?;
            check_regressions(&out, &results, factor).map_err(ServiceError::failed)
        }
        None => record_run(&out, label, targets, results).map_err(ServiceError::failed),
    }
}

/// Runs each bench target with `CRITERION_JSON` pointed at a scratch file
/// and parses the emitted lines.
fn run_targets(targets: &[String]) -> Result<Vec<BenchResult>, String> {
    let scratch = std::env::temp_dir().join(format!("ses-bench-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&scratch);
    for target in targets {
        eprintln!("# bench-baseline: running target {target}");
        let status = Command::new("cargo")
            .args(["bench", "--bench", target])
            .env("CRITERION_JSON", &scratch)
            .status()
            .map_err(|e| format!("cannot spawn cargo bench: {e}"))?;
        if !status.success() {
            return Err(format!("cargo bench --bench {target} failed ({status})"));
        }
    }
    let raw = std::fs::read_to_string(&scratch)
        .map_err(|e| format!("no bench output at {}: {e}", scratch.display()))?;
    let _ = std::fs::remove_file(&scratch);
    let mut results = Vec::new();
    for line in raw.lines().filter(|l| !l.trim().is_empty()) {
        let r: BenchResult =
            serde_json::from_str(line).map_err(|e| format!("bad bench line '{line}': {e}"))?;
        results.push(r);
    }
    if results.is_empty() {
        return Err("bench run produced no results".into());
    }
    Ok(results)
}

/// Appends one run to the baseline file (creating it if absent) and prints
/// the speedup of every benchmark shared with the previous run.
fn record_run(
    out: &Path,
    label: String,
    targets: Vec<String>,
    results: Vec<BenchResult>,
) -> Result<(), String> {
    let mut file = load_baseline(out)?.unwrap_or(BaselineFile { schema: 1, runs: Vec::new() });
    if let Some(prev) = file.runs.last() {
        print_comparison(prev, &results);
    }
    let run = BaselineRun {
        label,
        commit: git_commit(),
        rustc: rustc_version(),
        recorded_at_unix: unix_now(),
        targets,
        results,
    };
    eprintln!(
        "# bench-baseline: recording run '{}' ({} benchmarks) -> {}",
        run.label,
        run.results.len(),
        out.display()
    );
    file.runs.push(run);
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(out, json + "\n").map_err(|e| format!("cannot write {}: {e}", out.display()))
}

/// Compares each fresh result against the most recent recorded run that
/// holds its id (runs record different target sets); errors if any
/// benchmark's median regressed by more than `factor`×.
fn check_regressions(out: &Path, fresh: &[BenchResult], factor: f64) -> Result<(), String> {
    let file = load_baseline(out)?
        .ok_or_else(|| format!("--check needs a committed baseline at {}", out.display()))?;
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for f in fresh {
        let Some(p) = file.runs.iter().rev().find_map(|r| r.results.iter().find(|p| p.id == f.id))
        else {
            continue;
        };
        compared += 1;
        let (line, ratio) = check_line(p, f, factor);
        eprintln!("{line}");
        if ratio > factor {
            regressions.push(format!("{} regressed {ratio:.2}x (limit {factor}x)", f.id));
        }
    }
    if compared == 0 {
        return Err("no benchmark ids shared with the committed baseline".into());
    }
    if regressions.is_empty() {
        eprintln!("# bench-baseline: {compared} benchmarks within {factor}x of baseline");
        Ok(())
    } else {
        Err(regressions.join("; "))
    }
}

/// One `--check` line comparing a fresh result with its committed one, and
/// the fresh/committed ratio the gate tests. The verdict is `REGRESSED`
/// past `factor`; otherwise a gauge whose value moved at all is `CHANGED`
/// (gauges are deterministic), and anything else is `ok`.
fn check_line(committed: &BenchResult, fresh: &BenchResult, factor: f64) -> (String, f64) {
    let ratio = fresh.median_ns as f64 / committed.median_ns.max(1) as f64;
    let verdict = if ratio > factor {
        "REGRESSED"
    } else if is_gauge(&fresh.id) && fresh.median_ns != committed.median_ns {
        "CHANGED"
    } else {
        "ok"
    };
    let unit = unit(&fresh.id);
    let line = format!(
        "{:<56} committed {:>10} {unit}  fresh {:>10} {unit}  x{ratio:.2} {verdict}",
        fresh.id, committed.median_ns, fresh.median_ns
    );
    (line, ratio)
}

/// Prints per-benchmark speedup vs. a previous run (old median / new median;
/// > 1 is faster), flagging any gauge whose value moved as `CHANGED`.
fn print_comparison(prev: &BaselineRun, fresh: &[BenchResult]) {
    eprintln!("# bench-baseline: speedup vs previous run '{}' ({})", prev.label, prev.commit);
    for f in fresh {
        if let Some(p) = prev.results.iter().find(|p| p.id == f.id) {
            eprintln!("{}", comparison_line(p, f));
        }
    }
}

/// One [`print_comparison`] line.
fn comparison_line(prev: &BenchResult, fresh: &BenchResult) -> String {
    let speedup = prev.median_ns as f64 / fresh.median_ns.max(1) as f64;
    let changed = is_gauge(&fresh.id) && fresh.median_ns != prev.median_ns;
    let unit = unit(&fresh.id);
    format!(
        "{:<56} {:>10} {unit} -> {:>10} {unit}  ({speedup:.2}x){}",
        fresh.id,
        prev.median_ns,
        fresh.median_ns,
        if changed { " CHANGED" } else { "" }
    )
}

/// Whether `id` names a gauge — a byte count the bench targets record in
/// the timing fields (`…/heap_bytes/…`, `…/snapshot_bytes/…`), not a time.
fn is_gauge(id: &str) -> bool {
    id.contains("/heap_bytes/") || id.contains("/snapshot_bytes/")
}

/// The unit of `id`'s recorded value.
fn unit(id: &str) -> &'static str {
    if is_gauge(id) {
        "bytes"
    } else {
        "ns"
    }
}

fn load_baseline(path: &Path) -> Result<Option<BaselineFile>, String> {
    match std::fs::read_to_string(path) {
        Ok(s) => serde_json::from_str(&s)
            .map(Some)
            .map_err(|e| format!("cannot parse {}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: &str, median_ns: u64) -> BenchResult {
        BenchResult { id: id.into(), median_ns, mean_ns: median_ns, min_ns: median_ns, samples: 1 }
    }

    #[test]
    fn gauges_print_bytes_and_flag_any_change() {
        let id = "scale_100k/heap_bytes/sparse";
        let (same, ratio) = check_line(&result(id, 72_000_968), &result(id, 72_000_968), 2.0);
        assert_eq!(ratio, 1.0);
        assert!(same.contains("72000968 bytes") && same.ends_with(" ok"), "{same}");
        assert!(!same.contains(" ns"), "{same}");
        let (moved, _) = check_line(&result(id, 72_000_968), &result(id, 72_000_976), 2.0);
        assert!(moved.ends_with(" CHANGED"), "{moved}");
        let (grown, ratio) = check_line(&result(id, 100), &result(id, 300), 2.0);
        assert!(ratio > 2.0 && grown.ends_with(" REGRESSED"), "{grown}");
        let snapshot = "persist_restore/snapshot_bytes/100k";
        let line = comparison_line(&result(snapshot, 10), &result(snapshot, 11));
        assert!(line.contains("10 bytes ->") && line.ends_with(" CHANGED"), "{line}");
        assert!(!comparison_line(&result(snapshot, 10), &result(snapshot, 10)).contains("CHANGED"));
    }

    #[test]
    fn timings_keep_ns_and_tolerate_drift_below_the_factor() {
        let id = "scale_100k/total_utility/compressed";
        let (line, ratio) = check_line(&result(id, 1_000), &result(id, 1_900), 2.0);
        assert!(ratio < 2.0 && line.contains("1900 ns") && line.ends_with(" ok"), "{line}");
        let (line, _) = check_line(&result(id, 1_000), &result(id, 2_100), 2.0);
        assert!(line.ends_with(" REGRESSED"), "{line}");
        let line = comparison_line(&result(id, 2_000), &result(id, 1_000));
        assert!(line.contains("2000 ns ->") && line.ends_with("(2.00x)"), "{line}");
    }
}

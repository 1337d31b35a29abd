//! Serving-path benchmark for the SES session server.
//!
//! One command runs a named workload against an in-process
//! `SessionManager` at the paper's default scale (100k users), checks
//! every output, and prints each metric with its unit and direction. The
//! untraced run (`--trace 0`) reports the end-to-end metrics; the traced
//! run (`--trace 1`) reports the per-layer metrics, derived from spans the
//! benchmark records around each public call it makes. The program under
//! test only ever receives generated wire lines.
//!
//! See `README.md` in this directory for the workloads, the metric
//! definitions and the layer → end-to-end prediction map.

pub mod load;
mod run;
pub mod trace;

pub use run::{run, session_child};

use std::path::PathBuf;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch planning: `Schedule` cycling ALG, INC, HOR, HOR-I.
    Plan,
    /// Live updates: single-op `ApplyOps` on an armed repairer.
    Live,
    /// Durable ingest: single-op `ApplyOps` on a cold durable session,
    /// ended by a restart that recovers from disk.
    Ingest,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Plan, Workload::Live, Workload::Ingest];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Plan => "plan_100k",
            Workload::Live => "live_100k",
            Workload::Ingest => "ingest_durable_100k",
        }
    }

    /// Position in [`Workload::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Instance shape and load settings. [`Scale::FULL`] is the benchmark;
/// [`Scale::SMALL`] runs the same workloads and checks in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `full` or `small`.
    pub name: &'static str,
    /// Users |U|.
    pub users: usize,
    /// Candidate events |E|.
    pub events: usize,
    /// Intervals |T|.
    pub intervals: usize,
    /// Interest quantization levels.
    pub levels: usize,
    /// Schedule size k.
    pub k: usize,
    /// Writes per second of `--seconds`, over all passes, per workload in
    /// [`Workload::ALL`] order. The writer sends a fixed number of writes
    /// so that every run of a seed does the same work; this pace sets
    /// that number.
    pub write_pace: [f64; 3],
    /// Passes per run, per workload in [`Workload::ALL`] order. Each pass
    /// sends the same writes on a session that starts from the same
    /// state; a write's latency is its fastest over the passes.
    pub passes: [usize; 3],
    /// Open-loop reads per second.
    pub read_rate: f64,
    /// Reads draw events from `0..read_events`, below any count event
    /// churn can reach within a run.
    pub read_events: usize,
    /// Durable auto-compaction cadence, in logged requests.
    pub snapshot_every: u64,
}

impl Scale {
    /// The paper's default scale: Zipf s=2, 100k users, 60 events, 18
    /// intervals, 256 interest levels, k = 12.
    pub const FULL: Scale = Scale {
        name: "full",
        users: 100_000,
        events: 60,
        intervals: 18,
        levels: 256,
        k: 12,
        // At the benchmark's 15 s: six passes of one five-write plan
        // cycle, four passes of 8 live writes and three of 12 ingest
        // writes. A plan write takes 0.5 to 0.9 s, a live write 0.4 to
        // 0.8 s and an ingest write about 0.15 s, with compactions of
        // about 1.7 s.
        write_pace: [2.0, 32.0 / 15.0, 2.4],
        passes: [6, 4, 3],
        read_rate: 100.0,
        read_events: 24,
        // 12 ingest writes a pass: two compactions, the top two writes,
        // so p90 is the faster of them; and a 2-record tail for the
        // restart to replay.
        snapshot_every: 5,
    };

    /// A small instance for the benchmark's own tests.
    pub const SMALL: Scale = Scale {
        name: "small",
        users: 2_000,
        events: 20,
        intervals: 6,
        levels: 256,
        k: 5,
        write_pace: [16.0, 16.0, 24.0],
        passes: [2, 2, 2],
        read_rate: 400.0,
        read_events: 8,
        snapshot_every: 5,
    };

    /// The scale called `name`.
    pub fn parse(name: &str) -> Option<Scale> {
        [Scale::FULL, Scale::SMALL].into_iter().find(|s| s.name == name)
    }

    /// Passes the workload runs.
    pub fn passes(&self, w: Workload) -> usize {
        self.passes[w.index()]
    }

    /// Writes in each pass of a run of `seconds`.
    pub fn pass_writes(&self, w: Workload, seconds: f64) -> usize {
        let i = w.index();
        let n = (self.write_pace[i] * seconds / self.passes[i] as f64).ceil().max(4.0) as usize;
        // Plan cycles through its schedulers; keep whole cycles.
        if w == Workload::Plan {
            let cycle = crate::run::PLAN_CYCLE.len();
            n.div_ceil(cycle) * cycle
        } else {
            n
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the instance, the op streams and the read mix.
    pub seed: u64,
    /// Measured-phase length: the phase lasts at least this long.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Instance shape and load settings.
    pub scale: Scale,
    /// Where state directories and the span file go.
    pub out_dir: PathBuf,
    /// This benchmark's executable, which timed set-ups and restarts run
    /// in (see [`session_child`]).
    pub exe: PathBuf,
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: name, unit, direction. Reported by `--trace 0`.
pub const END_TO_END: &[(&str, &str, Better)] = &[
    ("setup_s", "s", Lower),
    ("write_p50_ms", "ms", Lower),
    ("write_p90_ms", "ms", Lower),
    ("writes_per_s", "1/s", Higher),
    ("read_p50_ms", "ms", Lower),
    ("read_p90_ms", "ms", Lower),
    ("recover_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("attendance", "omega", Higher),
    ("ok_share", "ratio", Higher),
];

/// Per-layer metrics: name, unit, direction. Reported by `--trace 1`.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("setup.build_s", "s", Lower),
    ("setup.boot_s", "s", Lower),
    ("setup.arm_s", "s", Lower),
    ("wire.decode_us", "us", Lower),
    ("wire.encode_us", "us", Lower),
    ("wire.resp_bytes", "bytes", Lower),
    ("net.republish_ms", "ms", Lower),
    ("net.readview_heap_bytes", "bytes", Lower),
    ("read.event_ms", "ms", Lower),
    ("read.user_us", "us", Lower),
    ("read.interval_us", "us", Lower),
    ("read.snapshot_us", "us", Lower),
    ("loadgen.late_p99_ms", "ms", Lower),
    ("delta.apply_p50_ms", "ms", Lower),
    ("delta.apply_p90_ms", "ms", Lower),
    ("delta.shift_ms", "ms", Lower),
    ("delta.structural_ms", "ms", Lower),
    ("stream.repair_p50_ms", "ms", Lower),
    ("stream.repair_p90_ms", "ms", Lower),
    ("stream.rescored", "count", Lower),
    ("stream.user_ops", "count", Lower),
    ("stream.examined", "count", Lower),
    ("sched.alg_ms", "ms", Lower),
    ("sched.inc_ms", "ms", Lower),
    ("sched.hor_ms", "ms", Lower),
    ("sched.hor_i_ms", "ms", Lower),
    ("engine.user_ops.alg", "count", Lower),
    ("engine.user_ops.inc", "count", Lower),
    ("engine.user_ops.hor", "count", Lower),
    ("engine.user_ops.hor_i", "count", Lower),
    ("engine.examined.alg", "count", Lower),
    ("engine.examined.inc", "count", Lower),
    ("engine.user_ops_ratio.inc_alg", "ratio", Lower),
    ("engine.user_ops_ratio.hor_i_alg", "ratio", Lower),
    ("wal.append_us", "us", Lower),
    ("wal.bytes_per_op", "bytes", Lower),
    ("snapshot.encode_ms", "ms", Lower),
    ("snapshot.write_ms", "ms", Lower),
    ("snapshot.bytes", "bytes", Lower),
    ("recovery.load_ms", "ms", Lower),
    ("recovery.replay_ms_per_record", "ms", Lower),
    ("recovery.replayed", "count", Lower),
    ("model.heap_bytes", "bytes", Lower),
    ("traced.write_p50_ms", "ms", Lower),
    ("traced.read_p50_ms", "ms", Lower),
    ("traced.read_p99_ms", "ms", Lower),
];

/// Requests of one phase and kind: sent, answered without error, failed.
#[derive(Debug, Clone, Default)]
pub struct Count {
    /// Phase and request kind, e.g. `measure/ApplyOps`.
    pub label: String,
    /// Requests sent.
    pub sent: u64,
    /// Answered as asked.
    pub ok: u64,
    /// Answered with an error or the wrong answer.
    pub failed: u64,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// The seed it ran with.
    pub seed: u64,
    /// Whether it was the traced run.
    pub trace: bool,
    /// Metric values by name, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-phase request accounting.
    pub counts: Vec<Count>,
    /// Failed output checks (empty when every check passed).
    pub violations: Vec<String>,
    /// Layers whose per-layer metrics came from the end-of-run probe
    /// because the workload's own traffic does not cross them.
    pub probed: Vec<&'static str>,
    /// Each pass's write latencies (ms), in write order.
    pub pass_writes_ms: Vec<Vec<f64>>,
}

impl Report {
    /// Requests sent over the whole run.
    pub fn attempted(&self) -> u64 {
        self.counts.iter().map(|c| c.sent).sum()
    }

    /// Requests that failed over the whole run.
    pub fn failed(&self) -> u64 {
        self.counts.iter().map(|c| c.failed).sum()
    }

    /// Whether every check passed and no request failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed() == 0
    }

    /// The metric table this run reports.
    pub fn table(&self) -> &'static [(&'static str, &'static str, Better)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The value of one metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Human-readable report: seed, accounting, checks and metrics.
    pub fn human(&self) -> String {
        let mut s = format!(
            "# perfbench workload={} seed={} trace={}\n",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        );
        s.push_str(&format!("{:<28} {:>8} {:>8} {:>8}\n", "requests", "sent", "ok", "failed"));
        for c in &self.counts {
            s.push_str(&format!("{:<28} {:>8} {:>8} {:>8}\n", c.label, c.sent, c.ok, c.failed));
        }
        for v in &self.violations {
            s.push_str(&format!("CHECK FAILED: {v}\n"));
        }
        if !self.probed.is_empty() {
            s.push_str(&format!("probed layers: {}\n", self.probed.join(", ")));
        }
        for (p, writes) in self.pass_writes_ms.iter().enumerate() {
            let ms: Vec<String> = writes.iter().map(|v| format!("{v:.0}")).collect();
            s.push_str(&format!("pass {p} write ms: {}\n", ms.join(" ")));
        }
        s.push_str(&format!("{:<34} {:>16} {:<6} better\n", "metric", "value", "unit"));
        for &(name, unit, better) in self.table() {
            let v = self.value(name).unwrap_or(f64::NAN);
            s.push_str(&format!("{name:<34} {v:>16.4} {unit:<6} {}\n", better.name()));
        }
        s
    }

    /// The one-line JSON result the benchmark prints last.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .table()
            .iter()
            .map(|&(name, unit, _)| {
                let v = self.value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(",")
        )
    }
}

//! Golden snapshot of one seeded **windowed** stream run: a redundant
//! bursty feed is carved into 12-op windows, each coalesced and repaired
//! in one flush, and the per-window trace — window size, coalesced batch
//! size, shapes, repair work, schedules, utilities — is byte-compared
//! against a committed golden file. The trace excludes wall-clock, so it
//! is fully deterministic; CI's `SES_THREADS` matrix makes the same
//! bytes double as a differential proof that thread count changes
//! nothing in the windowed repair path.
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test golden_windowed_stream` — then
//! commit the rewritten `tests/golden/windowed_stream.txt` and re-run
//! without the variable.

use social_event_scheduling::algorithms::stream::StreamScheduler;
use social_event_scheduling::core::delta::coalesce::coalesce;
use social_event_scheduling::core::delta::DeltaOp;
use social_event_scheduling::core::model::Instance;
use social_event_scheduling::core::parallel::Threads;
use social_event_scheduling::datasets::ops::{self, BurstParams, OpStreamParams};
use social_event_scheduling::datasets::Dataset;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/windowed_stream.txt");
const WINDOW: usize = 12;

fn render_run() -> String {
    let base = Dataset::Unf.build(60, 16, 5, 0xD15);
    let params =
        OpStreamParams::default().with_ops(40).with_churn(0.5).with_user_churn(0.4).with_seed(7);
    let burst = BurstParams::default().with_ops(params).with_redundancy(0.6);
    let feed: Vec<DeltaOp> =
        ops::generate_bursts(&base, &burst).into_iter().map(|t| t.op).collect();
    // Threads::default() resolves SES_THREADS: under CI's thread matrix the
    // identical golden bytes prove the windowed path is thread-invariant.
    let mut inst = base;
    let mut stream = StreamScheduler::new(&inst, 6, Threads::default());
    let mut out = String::new();
    let mut line =
        |tag: &str, ops: usize, coalesced: usize, inst: &Instance, s: &StreamScheduler| {
            let rep = s.last_repair();
            let sched: Vec<String> = s
                .schedule()
                .assignments()
                .iter()
                .map(|a| format!("{}@{}", a.event, a.interval))
                .collect();
            let _ = writeln!(
                out,
                "{tag:<6} ops={ops:<3} coal={coalesced:<3} |E|={:<3} |U|={:<3} rescored={:<3} \
             scores={:<5} updates={:<4} examined={:<5} utility={:.12} S=[{}]",
                inst.num_events(),
                inst.num_users(),
                rep.rescored,
                rep.stats.score_computations,
                rep.stats.score_updates,
                rep.stats.assignments_examined,
                s.utility(),
                sched.join(" "),
            );
        };
    line("cold", 0, 0, &inst, &stream);
    for chunk in feed.chunks(WINDOW) {
        let batch = coalesce(&inst, chunk).expect("generated windows are valid");
        let coalesced = batch.len();
        stream.repair_batch(&mut inst, chunk).expect("generated windows are valid");
        line("win", chunk.len(), coalesced, &inst, &stream);
    }
    out
}

fn maybe_update(path: &str, content: &str) -> bool {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let full = format!("{}/tests/{path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&full, content).expect("write golden file");
        eprintln!("rewrote {full}");
        true
    } else {
        false
    }
}

#[test]
fn windowed_stream_trace_matches_golden() {
    let trace = render_run();
    if maybe_update("golden/windowed_stream.txt", &trace) {
        return;
    }
    assert_eq!(
        trace, GOLDEN,
        "seeded windowed stream trace drifted from tests/golden/windowed_stream.txt \
         (UPDATE_GOLDEN=1 regenerates if the change is intentional)"
    );
}

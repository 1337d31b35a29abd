//! Golden snapshot of one seeded `stream` run: the per-op trace of a
//! 40-op churn stream — op kinds, shapes, repair work, schedules, and
//! utilities — is byte-compared against a committed golden file. The
//! trace excludes wall-clock, so it is fully deterministic; CI's
//! `SES_THREADS` matrix makes the same bytes double as a differential
//! proof that thread count changes nothing in the repair path.
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test golden_stream` — then commit the
//! rewritten `tests/golden/stream_smoke.txt` and re-run without the
//! variable.

use social_event_scheduling::algorithms::stream::StreamScheduler;
use social_event_scheduling::core::model::Instance;
use social_event_scheduling::core::parallel::Threads;
use social_event_scheduling::datasets::ops::{self, OpStreamParams};
use social_event_scheduling::datasets::Dataset;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/stream_smoke.txt");

fn render_run() -> String {
    let base = Dataset::Unf.build(60, 16, 5, 0xD15);
    let params =
        OpStreamParams::default().with_ops(40).with_churn(0.5).with_user_churn(0.4).with_seed(7);
    let stream_ops = ops::generate(&base, &params);
    // Threads::default() resolves SES_THREADS: under CI's thread matrix the
    // identical golden bytes prove the repair path is thread-invariant.
    let mut inst = base;
    let mut stream = StreamScheduler::new(&inst, 6, Threads::default());
    let mut out = String::new();
    let mut line = |tag: &str, inst: &Instance, s: &StreamScheduler| {
        let rep = s.last_repair();
        let sched: Vec<String> = s
            .schedule()
            .assignments()
            .iter()
            .map(|a| format!("{}@{}", a.event, a.interval))
            .collect();
        let _ = writeln!(
            out,
            "{tag:<14} |E|={:<3} |U|={:<3} rescored={:<3} scores={:<5} updates={:<4} \
             examined={:<5} utility={:.12} S=[{}]",
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
    line("cold", &inst, &stream);
    for op in &stream_ops {
        stream.apply(&mut inst, op).expect("generated ops are valid");
        line(op.kind(), &inst, &stream);
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
fn stream_trace_matches_golden() {
    let trace = render_run();
    if maybe_update("golden/stream_smoke.txt", &trace) {
        return;
    }
    assert_eq!(
        trace, GOLDEN,
        "seeded stream trace drifted from tests/golden/stream_smoke.txt \
         (UPDATE_GOLDEN=1 regenerates if the change is intentional)"
    );
}

//! Golden counters for every registered scheduler: one line per
//! `SchedulerKind::ALL` kind × bound-first gate {off, on} on one seeded Concerts instance, each
//! holding the run's full `Stats`, its utility bits and its assignments.
//!
//! The fig5 goldens pin only the paper's six methods with the gate off,
//! and only two counters; this file pins the rest (LAZY, EXACT, HOR+LS and
//! every gated run) down to the last counter. The lines are rendered at 1
//! and at 4 threads and both must equal the committed bytes, so the file
//! doubles as a thread-invariance check of each scheduler's seeding.
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test golden_counters` — then commit the
//! rewritten `tests/golden/scheduler_counters.txt` and re-run without the
//! variable.

use social_event_scheduling::algorithms::{RunConfig, Scheduler, SchedulerKind, Scratch};
use social_event_scheduling::core::parallel::Threads;
use social_event_scheduling::datasets::Dataset;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/scheduler_counters.txt");

/// |T| = 3 with k = 5 puts HOR and HOR-I into a second round; |E| = 9
/// keeps EXACT's branch and bound cheap.
fn render(threads: usize) -> String {
    let inst = Dataset::Concerts.build(80, 9, 3, 0xC0DE);
    let k = 5;
    let mut out = String::new();
    for kind in SchedulerKind::ALL {
        for gate in [false, true] {
            let cfg = RunConfig::threaded(Threads::new(threads)).with_bound_gate(gate);
            let res = kind.run_configured(&inst, k, cfg, &mut Scratch::new());
            let sched: Vec<String> = res
                .schedule
                .assignments()
                .iter()
                .map(|a| format!("{}@{}", a.event, a.interval))
                .collect();
            let _ = writeln!(
                out,
                "{:<6} gate={:<3} utility={:#018x} S=[{}] {:?}",
                res.algorithm,
                if gate { "on" } else { "off" },
                res.utility.to_bits(),
                sched.join(" "),
                res.stats,
            );
        }
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
fn every_scheduler_matches_its_golden_counters() {
    let sequential = render(1);
    if maybe_update("golden/scheduler_counters.txt", &sequential) {
        return;
    }
    assert_eq!(
        sequential, GOLDEN,
        "scheduler counters drifted from tests/golden/scheduler_counters.txt \
         (UPDATE_GOLDEN=1 regenerates if the change is intentional)"
    );
    assert_eq!(render(4), GOLDEN, "4-thread runs drifted from the sequential golden");
}

//! The differential layer behind the session service: **every request a
//! [`SesService`] answers is bit-identical to the cold, hand-plumbed
//! path it replaced.**
//!
//! The service owns warm state — one shared scratch pool, the
//! incremental repairer's caches, a live mutated instance — and all of it
//! must be invisible in results. Three claims, each tested differentially:
//!
//! * a `Schedule` request equals a cold `run_configured` call: same
//!   assignment sequence, same utility bits (`f64::to_bits`), same full
//!   [`Stats`] — for **every registry scheduler × every dataset × 1 and 4
//!   threads**;
//! * warm state survives (and stays invisible across) **hundreds of
//!   consecutive requests** on one service — the pooled scratches make the
//!   steady state allocation-free, and round N must answer exactly like
//!   round 1;
//! * a `Repair`/`ApplyOps` session equals a hand-driven
//!   [`StreamScheduler`] op for op: same repaired schedule, utility bits,
//!   and per-op counters, with `Schedule` requests interleaved to prove
//!   the two warm caches don't contaminate each other.

use social_event_scheduling::algorithms::stream::StreamScheduler;
use social_event_scheduling::algorithms::{
    RunConfig, Scheduler, SchedulerKind, Scratch, SesService,
};
use social_event_scheduling::core::parallel::Threads;
use social_event_scheduling::core::stats::Stats;
use social_event_scheduling::datasets::ops::{self, OpStreamParams};
use social_event_scheduling::datasets::Dataset;
use social_event_scheduling::Instance;

/// Explicit thread counts (the CI thread-matrix additionally re-runs this
/// whole file under `SES_THREADS=1` and `=4`).
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn assert_schedule_matches(
    label: &str,
    via: &social_event_scheduling::algorithms::ScheduleResult,
    direct: &social_event_scheduling::algorithms::ScheduleResult,
) {
    assert_eq!(via.algorithm, direct.algorithm, "{label}: label diverged");
    assert_eq!(
        via.schedule.assignments(),
        direct.schedule.assignments(),
        "{label}: schedule diverged"
    );
    assert_eq!(
        via.utility.to_bits(),
        direct.utility.to_bits(),
        "{label}: utility bits diverged ({} vs {})",
        via.utility,
        direct.utility
    );
    assert_eq!(via.stats, direct.stats, "{label}: stats diverged");
}

/// `Schedule` requests across the full registry × datasets × thread
/// matrix, on one service per (dataset, threads) so warm scratches carry
/// across schedulers. EXACT runs on a reduced shape below (its search
/// tree explodes on this one).
#[test]
fn service_schedule_bit_identical_to_direct_runs() {
    for dataset in Dataset::ALL {
        let inst = dataset.build(150, 24, 6, 0x5E5);
        for threads in THREAD_COUNTS.map(Threads::new) {
            let cfg = RunConfig::threaded(threads);
            let mut service = SesService::new(inst.clone()).with_threads(threads);
            for kind in SchedulerKind::ALL {
                let name = kind.name();
                if name == "EXACT" {
                    continue;
                }
                let via = service.schedule(name, 8, cfg).expect("registered name");
                let direct = kind.run_configured(&inst, 8, cfg, &mut Scratch::new());
                let label = format!("{}/{}/t{}", dataset.name(), name, threads.get());
                assert_schedule_matches(&label, &via, &direct);
            }
        }
    }
}

/// EXACT through the service on a branch-&-bound-tractable shape.
#[test]
fn service_exact_bit_identical_to_direct_run() {
    let inst = Dataset::Zip.build(120, 6, 2, 0xE8A);
    for threads in THREAD_COUNTS.map(Threads::new) {
        let cfg = RunConfig::threaded(threads);
        let mut service = SesService::new(inst.clone()).with_threads(threads);
        let via = service.schedule("exact", 3, cfg).unwrap();
        let kind = SchedulerKind::resolve("exact").unwrap();
        let direct = kind.run_configured(&inst, 3, cfg, &mut Scratch::new());
        assert_schedule_matches(&format!("Zip-exact/t{}", threads.get()), &via, &direct);
    }
}

/// One service, ≥ 100 consecutive `Schedule` requests over warm scratch
/// pools: every round must answer bit-identically to the cold reference
/// captured in round 1 — warm state may only save allocations, never leak
/// into results. The gated and profiled configurations ride along.
#[test]
fn warm_service_stable_across_hundreds_of_requests() {
    let inst = Dataset::Unf.build(120, 20, 5, 0xA11);
    let mut service = SesService::new(inst.clone()).with_threads(Threads::sequential());
    let lineup: Vec<&'static str> =
        SchedulerKind::ALL.map(SchedulerKind::name).into_iter().filter(|n| *n != "EXACT").collect();
    let configs = [
        RunConfig::threaded(Threads::sequential()),
        RunConfig::threaded(Threads::sequential()).with_bound_gate(true),
        RunConfig::threaded(Threads::new(4)).with_profile(true),
    ];

    // Round 1: capture the cold reference per (scheduler, config).
    let mut reference = Vec::new();
    for cfg in configs {
        for name in &lineup {
            let kind = SchedulerKind::resolve(name).unwrap();
            reference.push(kind.run_configured(&inst, 7, cfg, &mut Scratch::new()));
        }
    }

    let mut requests = 0usize;
    for round in 0..5 {
        let mut it = reference.iter();
        for cfg in configs {
            for name in &lineup {
                let via = service.schedule(name, 7, cfg).unwrap();
                let direct = it.next().unwrap();
                assert_schedule_matches(&format!("round{round}/{name}"), &via, direct);
                requests += 1;
            }
        }
    }
    assert!(requests >= 100, "exercised only {requests} requests");
}

/// A `Repair` + per-op `ApplyOps` session equals a hand-driven
/// `StreamScheduler` — schedule, utility bits, per-op stats — across
/// datasets and thread counts, over seeded 30-op streams. `Schedule`
/// requests interleave every few ops to prove the scheduler scratch pools
/// and the repairer caches stay independent.
#[test]
fn service_repair_bit_identical_to_direct_stream() {
    for dataset in Dataset::ALL {
        let base = dataset.build(90, 16, 5, 0xD17);
        let params = OpStreamParams::default().with_ops(30).with_churn(0.4).with_seed(0x0D5);
        let stream_ops = ops::generate(&base, &params);
        for threads in THREAD_COUNTS.map(Threads::new) {
            let cfg = RunConfig::threaded(threads);
            let label = |i: usize| format!("{}/t{}/op{}", dataset.name(), threads.get(), i);

            let mut service = SesService::new(base.clone()).with_threads(threads);
            let cold = service.repair(6, cfg).expect("cold repair");
            assert!(!cold.warm);
            let mut direct_inst = base.clone();
            let mut direct = StreamScheduler::new(&direct_inst, 6, threads);
            assert_repair_state_matches(&label(0), &service, &direct_inst, &direct);
            assert_eq!(cold.report.stats, direct.last_repair().stats);

            for (i, op) in stream_ops.iter().enumerate() {
                let reports = service.apply_ops(std::slice::from_ref(op)).expect("valid op");
                let direct_report = direct.apply(&mut direct_inst, op).expect("valid op").clone();
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].stats, direct_report.stats, "{}", label(i));
                assert_eq!(
                    reports[0].utility.to_bits(),
                    direct_report.utility.to_bits(),
                    "{}",
                    label(i)
                );
                assert_eq!(reports[0].rescored, direct_report.rescored, "{}", label(i));
                assert_repair_state_matches(&label(i), &service, &direct_inst, &direct);

                if i % 7 == 3 {
                    // Interleaved scheduling must neither disturb the
                    // repairer nor be disturbed by it.
                    let via = service.schedule("inc", 6, cfg).unwrap();
                    let direct_inc = SchedulerKind::resolve("inc").unwrap().run_configured(
                        &direct_inst,
                        6,
                        cfg,
                        &mut Scratch::new(),
                    );
                    assert_schedule_matches(&label(i), &via, &direct_inc);
                    // Re-arming the matching repairer is a warm no-op.
                    let again = service.repair(6, cfg).unwrap();
                    assert!(again.warm, "{}", label(i));
                    assert_eq!(again.report.stats, direct_report.stats, "{}", label(i));
                }
            }
        }
    }
}

fn assert_repair_state_matches(
    label: &str,
    service: &SesService,
    direct_inst: &Instance,
    direct: &StreamScheduler,
) {
    assert_eq!(
        service.current_schedule().expect("warm service").assignments(),
        direct.schedule().assignments(),
        "{label}: repaired schedule diverged"
    );
    assert_eq!(
        service.current_utility().expect("warm service").to_bits(),
        direct.utility().to_bits(),
        "{label}: repaired utility bits diverged"
    );
    assert_eq!(service.instance(), direct_inst, "{label}: instances diverged");
}

/// Thread count must be invisible in service results: the full request mix
/// (schedule / repair / ops / schedule) answered at 1 thread and at 4
/// threads produces identical deterministic payloads.
#[test]
fn service_responses_thread_invariant() {
    let base = Dataset::Concerts.build(100, 14, 4, 0xC0C);
    let params = OpStreamParams::default().with_ops(12).with_churn(0.5).with_seed(7);
    let stream_ops = ops::generate(&base, &params);

    /// One observation of the session: counters + utility bits + schedule.
    #[derive(Debug, PartialEq)]
    struct Observation {
        stats: Stats,
        utility_bits: u64,
        schedule: Vec<(usize, usize)>,
    }
    fn pairs(sched: &social_event_scheduling::Schedule) -> Vec<(usize, usize)> {
        sched.assignments().iter().map(|a| (a.event.index(), a.interval.index())).collect()
    }

    let run_session = |threads: Threads| -> Vec<Observation> {
        let cfg = RunConfig::threaded(threads);
        let mut service = SesService::new(base.clone()).with_threads(threads);
        let mut log = Vec::new();
        let res = service.schedule("hor-i", 5, cfg).unwrap();
        log.push(Observation {
            stats: res.stats,
            utility_bits: res.utility.to_bits(),
            schedule: pairs(&res.schedule),
        });
        service.repair(5, cfg).unwrap();
        for op in &stream_ops {
            let rep = &service.apply_ops(std::slice::from_ref(op)).unwrap()[0];
            log.push(Observation {
                stats: rep.stats,
                utility_bits: rep.utility.to_bits(),
                schedule: pairs(service.current_schedule().unwrap()),
            });
        }
        log
    };

    let t1 = run_session(Threads::sequential());
    let t4 = run_session(Threads::new(4));
    assert_eq!(t1, t4, "thread count leaked into service results");
}

/// The service's instance mutations match `delta::materialize` — the
/// ops-applied instance a cold client would build.
#[test]
fn service_instance_matches_materialized_ops() {
    use social_event_scheduling::core::delta;
    let base = Dataset::Meetup.build(80, 12, 4, 0x33);
    let params = OpStreamParams::default().with_ops(20).with_churn(0.6).with_seed(0x99);
    let stream_ops = ops::generate(&base, &params);

    // Cold service (no repairer): ops mutate the owned instance.
    let mut cold = SesService::new(base.clone()).with_threads(Threads::sequential());
    cold.apply_ops(&stream_ops).unwrap();
    // Warm service: ops flow through the repairer.
    let mut warm = SesService::new(base.clone()).with_threads(Threads::sequential());
    warm.repair(5, RunConfig::threaded(Threads::sequential())).unwrap();
    warm.apply_ops(&stream_ops).unwrap();

    let reference: Instance = delta::materialize(&base, &stream_ops).unwrap();
    assert_eq!(cold.instance(), &reference);
    assert_eq!(warm.instance(), &reference);
    assert_eq!(cold.ops_applied(), stream_ops.len() as u64);
}

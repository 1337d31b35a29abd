//! Constraint-layer bench: what the feasibility gate costs, micro and
//! macro.
//!
//! `gate/*` times a sweep of `Schedule::check_assign` over the full
//! assignment universe against a half-built schedule — `empty` is the
//! short-circuit path every unconstrained run takes (the hook must be
//! free when unused), `mixed` pays real capacity/conflict/precedence
//! lookups on every candidate. `inc/*` is the macro view: one end-to-end
//! INC run, free vs the seeded `mixed` family, across the t1/t4
//! dimension (results are bit-identical across it, as everywhere).

use criterion::{criterion_group, criterion_main, Criterion};
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_bench::{threaded_label, Threads, BENCH_THREADS};
use ses_core::schedule::Schedule;
use ses_datasets::{ConstraintFamily, Dataset};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Table-1 shape ratios at k = 20: |E| = 100, |T| = 30.
    let free = ses_bench::instance(Dataset::Unf, 100, 30, 0xC6);
    let mut constrained = free.clone();
    ConstraintFamily::Mixed.apply(&mut constrained, 0xC6);
    let k = 20;

    let mut group = c.benchmark_group("constrained_feasibility");

    // Micro: the admission gate over every (event, interval) candidate,
    // probed against a half-full greedy schedule.
    for (label, inst) in [("gate/empty", &free), ("gate/mixed", &constrained)] {
        let mut schedule = Schedule::new(inst);
        for (e, t) in inst.assignment_universe() {
            if schedule.len() < k / 2 && schedule.check_assign(inst, e, t).is_ok() {
                schedule.assign(inst, e, t).expect("checked valid");
            }
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                let admitted = inst
                    .assignment_universe()
                    .filter(|&(e, t)| schedule.check_assign(inst, e, t).is_ok())
                    .count();
                black_box(admitted)
            })
        });
    }

    // Macro: a full INC run with the gate live on every candidate.
    for threads in BENCH_THREADS {
        let t = Threads::new(threads);
        for (label, inst) in [("inc/free", &free), ("inc/mixed", &constrained)] {
            group.bench_function(threaded_label(label, threads), |b| {
                b.iter(|| black_box(SchedulerKind::Inc.run_threaded(inst, k, t)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

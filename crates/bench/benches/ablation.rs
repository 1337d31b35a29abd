//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Sparse vs dense interest storage** — the same Meetup-like instance
//!    scored through both layouts. Sparse wins in proportion to sparsity;
//!    this is the engineering choice the paper's `|U|`-per-score accounting
//!    abstracts away.
//! 2. **Bound effectiveness by dataset** — the full incremental-scheme
//!    decomposition ALG → LAZY (upper-bound laziness only) → INC (+ interval
//!    organization), and HOR → HOR-I, on Zip vs Unf: the paper's §4.2.8
//!    finding that bound-based pruning pays on skewed interest and fizzles
//!    on uniform — plus where the organization itself matters.
//! 3. **Quality recovery** — HOR vs HOR+LS (local-search refinement) vs ALG.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_bench::{instance, threaded_label, Threads, BENCH_THREADS, BENCH_USERS};
use ses_datasets::{meetup, Dataset, MeetupParams};
use std::hint::black_box;

fn storage_ablation(c: &mut Criterion) {
    let params = MeetupParams {
        num_users: BENCH_USERS,
        num_events: 150,
        num_intervals: 20,
        ..MeetupParams::default()
    };
    let sparse_inst = meetup::generate(&params);
    let mut dense_inst = sparse_inst.clone();
    dense_inst.event_interest = sparse_inst.event_interest.to_dense().into();
    dense_inst.competing_interest = sparse_inst.competing_interest.to_dense().into();

    let mut group = c.benchmark_group("ablation_storage/Meetup");
    group.sample_size(10);
    for (label, inst) in [("sparse", &sparse_inst), ("dense", &dense_inst)] {
        for threads in BENCH_THREADS {
            let t = Threads::new(threads);
            let hor_i = BenchmarkId::new(threaded_label("HOR-I", threads), label);
            group.bench_with_input(hor_i, label, |b, _| {
                b.iter(|| black_box(SchedulerKind::HorI.run_threaded(inst, 30, t)))
            });
            let alg = BenchmarkId::new(threaded_label("ALG", threads), label);
            group.bench_with_input(alg, label, |b, _| {
                b.iter(|| black_box(SchedulerKind::Alg.run_threaded(inst, 30, t)))
            });
        }
    }
    group.finish();
}

fn bound_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bounds");
    group.sample_size(10);
    // k > |T| so both incremental schemes actually do update work.
    let k = 40;
    for dataset in [Dataset::Zip, Dataset::Unf] {
        let inst = instance(dataset, 200, 20, 0xAB1);
        for kind in [
            SchedulerKind::Alg,  // no bounds, full updates
            SchedulerKind::Lazy, // upper-bound laziness, no organization
            SchedulerKind::Inc,  // laziness + interval organization
            SchedulerKind::Hor,  // horizontal policy, no bounds
            SchedulerKind::HorI, // horizontal policy + per-interval bounds
        ] {
            for threads in BENCH_THREADS {
                let id = BenchmarkId::new(threaded_label(kind.name(), threads), dataset.name());
                group.bench_with_input(id, &dataset, |b, _| {
                    b.iter(|| black_box(kind.run_threaded(&inst, k, Threads::new(threads))))
                });
            }
        }
    }
    group.finish();
}

fn refinement_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_refinement");
    group.sample_size(10);
    let inst = instance(Dataset::Unf, 200, 60, 0xAB2);
    for kind in [SchedulerKind::Hor, SchedulerKind::RefinedHor, SchedulerKind::Alg] {
        for threads in BENCH_THREADS {
            group.bench_function(threaded_label(kind.name(), threads), |b| {
                b.iter(|| black_box(kind.run_threaded(&inst, 40, Threads::new(threads))))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, storage_ablation, bound_ablation, refinement_ablation);
criterion_main!(benches);

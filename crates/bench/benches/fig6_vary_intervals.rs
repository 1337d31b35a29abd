//! **Fig 6e–h** (time vs `|T|`): fixed `k = 40`, `|E| = 200`, varying the
//! number of candidate intervals. Expected: HOR/HOR-I ≈ TOP and 2–5×
//! faster than ALG, with the largest factors at few intervals.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_bench::{instance, threaded_label, Threads, BENCH_THREADS};
use ses_datasets::Dataset;
use std::hint::black_box;

const K: usize = 40;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_time_vs_intervals/Zip");
    group.sample_size(10);
    for intervals in [8usize, 20, 40, 60] {
        let inst = instance(Dataset::Zip, 200, intervals, 0xF16 + intervals as u64);
        for kind in [
            SchedulerKind::Alg,
            SchedulerKind::Inc,
            SchedulerKind::Hor,
            SchedulerKind::HorI,
            SchedulerKind::Top,
        ] {
            for threads in BENCH_THREADS {
                let id = BenchmarkId::new(threaded_label(kind.name(), threads), intervals);
                group.bench_with_input(id, &intervals, |b, _| {
                    b.iter(|| black_box(kind.run_threaded(&inst, K, Threads::new(threads))))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

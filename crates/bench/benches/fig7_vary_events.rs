//! **Fig 7c–d** (time vs `|E|`): fixed `k = 40`, `|T| = 60` (k < |T| ⇒
//! HOR-I ≡ HOR, dropped per the paper), varying the candidate pool.
//! Expected: the ALG-vs-proposed gap widens with `|E|` (more update work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_bench::{instance, threaded_label, Threads, BENCH_THREADS};
use ses_datasets::Dataset;
use std::hint::black_box;

const K: usize = 40;
const INTERVALS: usize = 60;

fn bench(c: &mut Criterion) {
    for dataset in [Dataset::Concerts, Dataset::Unf] {
        let mut group = c.benchmark_group(format!("fig7_time_vs_events/{}", dataset.name()));
        group.sample_size(10);
        for events in [50usize, 150, 300] {
            let inst = instance(dataset, events, INTERVALS, 0xF17 + events as u64);
            for kind in
                [SchedulerKind::Alg, SchedulerKind::Inc, SchedulerKind::Hor, SchedulerKind::Top]
            {
                for threads in BENCH_THREADS {
                    let id = BenchmarkId::new(threaded_label(kind.name(), threads), events);
                    group.bench_with_input(id, &events, |b, _| {
                        b.iter(|| black_box(kind.run_threaded(&inst, K, Threads::new(threads))))
                    });
                }
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! **Fig 5i–l** (time vs `k`): ALG vs INC vs HOR vs HOR-I vs TOP as the
//! number of scheduled events grows, on a skew (Zip) and a homogeneous
//! (Unf) dataset. Expected ordering: ALG slowest; HOR-I fastest of the
//! greedy methods; the ALG gap widens with `k`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_bench::{instance_for_k, threaded_label, Threads, BENCH_THREADS};
use ses_datasets::Dataset;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    for dataset in [Dataset::Zip, Dataset::Unf] {
        let mut group = c.benchmark_group(format!("fig5_time_vs_k/{}", dataset.name()));
        group.sample_size(10);
        for k in [25usize, 50, 100] {
            let inst = instance_for_k(dataset, k, 0xF15 + k as u64);
            for kind in [
                SchedulerKind::Alg,
                SchedulerKind::Inc,
                SchedulerKind::Hor,
                SchedulerKind::HorI,
                SchedulerKind::Top,
            ] {
                for threads in BENCH_THREADS {
                    let id = BenchmarkId::new(threaded_label(kind.name(), threads), k);
                    group.bench_with_input(id, &k, |b, &k| {
                        b.iter(|| black_box(kind.run_threaded(&inst, k, Threads::new(threads))))
                    });
                }
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);

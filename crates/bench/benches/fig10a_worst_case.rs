//! **Fig 10a** (HOR/HOR-I worst case): `k = 40`, `|T| = 39`
//! (`k mod |T| = 1`, Propositions 5 & 7) on all four datasets. Expected:
//! HOR-I still outperforms every method except TOP; on Unf the bound-based
//! methods (INC, HOR-I) lose their edge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_bench::{instance, threaded_label, Threads, BENCH_THREADS};
use ses_datasets::Dataset;
use std::hint::black_box;

const K: usize = 40;
const INTERVALS: usize = 39; // k mod |T| = 1

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10a_worst_case");
    group.sample_size(10);
    for dataset in Dataset::ALL {
        let inst = instance(dataset, 5 * K, INTERVALS, 0xF1A);
        for kind in [
            SchedulerKind::Alg,
            SchedulerKind::Inc,
            SchedulerKind::Hor,
            SchedulerKind::HorI,
            SchedulerKind::Top,
        ] {
            for threads in BENCH_THREADS {
                let id = BenchmarkId::new(threaded_label(kind.name(), threads), dataset.name());
                group.bench_with_input(id, &dataset, |b, _| {
                    b.iter(|| black_box(kind.run_threaded(&inst, K, Threads::new(threads))))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

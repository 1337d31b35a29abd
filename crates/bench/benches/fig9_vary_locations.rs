//! **Fig 9b** (time vs locations): Unf, `k = 40`, `|T| = 26`, sweeping the
//! number of available locations. Expected: every method slows as the number
//! of locations grows (more feasible assignments survive pruning).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_bench::{threaded_label, Threads, BENCH_THREADS, BENCH_USERS};
use ses_datasets::params::{InterestModel, SyntheticParams};
use ses_datasets::synthetic;
use std::hint::black_box;

const K: usize = 40;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_time_vs_locations/Unf");
    group.sample_size(10);
    for locations in [5usize, 10, 25, 50] {
        let inst = synthetic::generate(&SyntheticParams {
            num_users: BENCH_USERS,
            num_events: 200,
            num_intervals: 26,
            num_locations: locations,
            interest: InterestModel::Uniform,
            seed: 0xF19 + locations as u64,
            ..SyntheticParams::default()
        });
        for kind in [
            SchedulerKind::Alg,
            SchedulerKind::Inc,
            SchedulerKind::Hor,
            SchedulerKind::HorI,
            SchedulerKind::Top,
        ] {
            for threads in BENCH_THREADS {
                let id = BenchmarkId::new(threaded_label(kind.name(), threads), locations);
                group.bench_with_input(id, &locations, |b, _| {
                    b.iter(|| black_box(kind.run_threaded(&inst, K, Threads::new(threads))))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

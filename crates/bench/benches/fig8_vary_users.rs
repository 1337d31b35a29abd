//! **Fig 8a–b** (time vs `|U|`): Unf dataset, `k = 40`; (a) `|T| = 60`
//! (k < |T|, no HOR-I) and (b) `|T| = 26` (the "average case" where HOR-I
//! participates). Expected: every method scales linearly in `|U|`; HOR and
//! HOR-I pull away from ALG as users grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_bench::{threaded_label, Threads, BENCH_THREADS};
use ses_datasets::Dataset;
use std::hint::black_box;

const K: usize = 40;
const EVENTS: usize = 200;

fn bench(c: &mut Criterion) {
    for (label, intervals, with_hor_i) in [("T60", 60usize, false), ("T26", 26usize, true)] {
        let mut group = c.benchmark_group(format!("fig8_time_vs_users/{label}"));
        group.sample_size(10);
        for users in [100usize, 250, 500] {
            let inst = Dataset::Unf.build(users, EVENTS, intervals, 0xF18 + users as u64);
            let mut kinds = vec![SchedulerKind::Alg, SchedulerKind::Inc, SchedulerKind::Hor];
            if with_hor_i {
                kinds.push(SchedulerKind::HorI);
            }
            kinds.push(SchedulerKind::Top);
            for kind in kinds {
                for threads in BENCH_THREADS {
                    let id = BenchmarkId::new(threaded_label(kind.name(), threads), users);
                    group.bench_with_input(id, &users, |b, _| {
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

//! **Fig 10b** (search space): ALG vs INC across the nine parameter
//! configurations, on the simulated Meetup dataset. Criterion measures
//! time here; the assignments-examined counts the paper plots are printed
//! once per configuration before sampling (and regenerated exactly by
//! `ses experiment fig10b`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_bench::{threaded_label, Threads, BENCH_THREADS, BENCH_USERS};
use ses_datasets::Dataset;
use std::hint::black_box;

/// Bench-scale renditions of the paper's nine Fig-10b configurations
/// (label, k, |E|, |T|) — one-fifth of the paper's sizes.
const CONFIGS: [(&str, usize, usize, usize); 9] = [
    ("k=10", 10, 50, 15),
    ("k=20", 20, 100, 30),
    ("k=40", 40, 200, 60),
    ("T=20", 20, 100, 20),
    ("T=40", 20, 100, 40),
    ("T=60", 20, 100, 60),
    ("E=20", 20, 20, 30),
    ("E=100", 20, 100, 30),
    ("E=200", 20, 200, 30),
];

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10b_search_space/Meetup");
    group.sample_size(10);
    for (i, (label, k, events, intervals)) in CONFIGS.into_iter().enumerate() {
        let inst = Dataset::Meetup.build(BENCH_USERS, events, intervals, 0xF1B + i as u64);
        for kind in [SchedulerKind::Alg, SchedulerKind::Inc] {
            // Print the figure's actual metric once, outside sampling.
            let examined = kind.run(&inst, k).stats.assignments_examined;
            eprintln!("fig10b {label} {}: {examined} assignments examined", kind.name());
            for threads in BENCH_THREADS {
                let id = BenchmarkId::new(threaded_label(kind.name(), threads), label);
                group.bench_with_input(id, &k, |b, &k| {
                    b.iter(|| black_box(kind.run_threaded(&inst, k, Threads::new(threads))))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

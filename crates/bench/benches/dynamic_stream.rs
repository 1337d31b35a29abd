//! Dynamic-workload bench: the cost of one incremental repair vs one full
//! recompute, per delta-op kind — the wall-clock side of the
//! examined-counter comparison the `dynamic` figure records.
//!
//! `repair/*` applies one op to a warm [`StreamScheduler`] (interest drift
//! toggles between two values so state never drifts across iterations;
//! add/remove pairs cancel out). `full_rebuild` is the cold-build baseline
//! a static system would pay per op. The t1/t4 dimension matches the other
//! benches — results are bit-identical across it.

use criterion::{criterion_group, criterion_main, Criterion};
use ses_algorithms::stream::StreamScheduler;
use ses_bench::{threaded_label, Threads, BENCH_THREADS};
use ses_core::delta::DeltaOp;
use ses_core::model::Event;
use ses_core::{EventId, LocationId};
use ses_datasets::Dataset;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Table-1 shape ratios at k = 20: |E| = 100, |T| = 30.
    let base = ses_bench::instance(Dataset::Unf, 100, 30, 0xD7);
    let k = 20;

    let mut group = c.benchmark_group("dynamic_stream");
    for threads in BENCH_THREADS {
        let t = Threads::new(threads);

        let mut inst = base.clone();
        let mut stream = StreamScheduler::new(&inst, k, t);
        let mut flip = false;
        group.bench_function(threaded_label("repair/shift_interest", threads), |b| {
            b.iter(|| {
                flip = !flip;
                let op = DeltaOp::ShiftInterest {
                    event: EventId::new(7),
                    user: 11,
                    interest: if flip { 0.9 } else { 0.1 },
                };
                black_box(stream.apply(&mut inst, &op).expect("valid op"));
            })
        });

        let mut inst = base.clone();
        let mut stream = StreamScheduler::new(&inst, k, t);
        group.bench_function(threaded_label("repair/event_churn", threads), |b| {
            b.iter(|| {
                let interest = vec![0.4; inst.num_users()];
                let add =
                    DeltaOp::AddEvent { event: Event::new(LocationId::new(3), 1.0), interest };
                stream.apply(&mut inst, &add).expect("valid op");
                let remove = DeltaOp::RemoveEvent { event: EventId::new(inst.num_events() - 1) };
                black_box(stream.apply(&mut inst, &remove).expect("valid op"));
            })
        });

        group.bench_function(threaded_label("full_rebuild", threads), |b| {
            b.iter(|| black_box(StreamScheduler::new(&base, k, t)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

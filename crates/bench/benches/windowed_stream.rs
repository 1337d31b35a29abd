//! Windowed-ingestion bench: one 32-op redundant window repaired as a
//! single coalesced batch vs op-at-a-time — the wall-clock side of the
//! `windowed` figure's ops/sec comparison, on the bursty-redundant
//! workload windowing exists for (most of the window is drift re-writes
//! of a few hot cells plus an add/remove pair that cancels outright).
//!
//! The window is state-neutral by construction: drift values flip
//! between two sets per iteration and the event add/remove pairs cancel,
//! so the instance never drifts across Criterion iterations. Dividing 32
//! by the per-window median gives sustained ops/sec; the coalesced
//! median must stay at or below the op-at-a-time one (BENCH_BASELINE.json
//! records both). `coalesce_only` isolates the cost of the coalescing
//! pass itself. The t1/t4 dimension matches the other benches — results
//! are bit-identical across it.

use criterion::{criterion_group, criterion_main, Criterion};
use ses_algorithms::stream::StreamScheduler;
use ses_bench::{threaded_label, Threads, BENCH_THREADS};
use ses_core::delta::coalesce::coalesce;
use ses_core::delta::DeltaOp;
use ses_core::model::Event;
use ses_core::{EventId, LocationId};
use ses_datasets::Dataset;
use std::hint::black_box;

/// Ops per window; the bench names carry it as `w32`.
const WINDOW: usize = 32;

/// A 32-op redundant window against the bench instance: 28 interest
/// drifts hammering four hot cells (seven writes each, only the last
/// per cell surviving coalescing), then two add/remove event pairs that
/// cancel outright. The surviving batch is 4 ops.
fn window(flip: bool, num_events: usize, num_users: usize) -> Vec<DeltaOp> {
    let cells: [(usize, usize); 4] = [(7, 11), (3, 42), (12, 97), (21, 5)];
    let mut ops = Vec::with_capacity(WINDOW);
    for rep in 0..7 {
        for (i, &(e, u)) in cells.iter().enumerate() {
            let wobble = 0.05 * ((rep * 4 + i) % 5) as f64;
            let interest = if flip { 0.7 + wobble } else { 0.1 + wobble };
            ops.push(DeltaOp::ShiftInterest { event: EventId::new(e), user: u, interest });
        }
    }
    for _ in 0..2 {
        ops.push(DeltaOp::AddEvent {
            event: Event::new(LocationId::new(3), 1.0),
            interest: vec![0.4; num_users],
        });
        ops.push(DeltaOp::RemoveEvent { event: EventId::new(num_events) });
    }
    assert_eq!(ops.len(), WINDOW);
    ops
}

fn bench(c: &mut Criterion) {
    // Table-1 shape ratios at k = 20: |E| = 100, |T| = 30.
    let base = ses_bench::instance(Dataset::Unf, 100, 30, 0xD7);
    let k = 20;
    let (ne, nu) = (base.num_events(), base.num_users());

    let mut group = c.benchmark_group("windowed_stream");
    for threads in BENCH_THREADS {
        let t = Threads::new(threads);

        let mut inst = base.clone();
        let mut stream = StreamScheduler::new(&inst, k, t);
        let mut flip = false;
        group.bench_function(threaded_label("coalesced/w32", threads), |b| {
            b.iter(|| {
                flip = !flip;
                let w = window(flip, ne, nu);
                black_box(stream.repair_batch(&mut inst, &w).expect("valid window"));
            })
        });

        let mut inst = base.clone();
        let mut stream = StreamScheduler::new(&inst, k, t);
        let mut flip = false;
        group.bench_function(threaded_label("op_at_a_time/w32", threads), |b| {
            b.iter(|| {
                flip = !flip;
                for op in window(flip, ne, nu) {
                    black_box(stream.apply(&mut inst, &op).expect("valid op"));
                }
            })
        });

        let w = window(true, ne, nu);
        group.bench_function(threaded_label("coalesce_only/w32", threads), |b| {
            b.iter(|| black_box(coalesce(&base, &w).expect("valid window")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

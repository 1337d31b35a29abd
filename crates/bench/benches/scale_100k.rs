//! **Scale baseline, 100k users** — the first point on the paper's
//! million-user axis (Table 1 runs |U| up to 1M; the committed figure
//! benches stop at bench scale). One Zipf workload, quantized to 256
//! interest levels, measured three ways:
//!
//! * build time for the sparse and compressed layouts via the
//!   counter-based streaming generator ([`ses_datasets::scale::build`]);
//! * resident interest bytes for both layouts, recorded as gauges riding
//!   the same baseline stream as the timings — the bench **asserts** the
//!   acceptance bar `compressed ≤ sparse / 3` before recording;
//! * steady-state work on the compressed layout: one Eq.-4
//!   `assignment_score` (t1/t4, bit-identical across the dimension) and
//!   one INC end-to-end schedule;
//! * Ω(S) of one fixed INC `k = 12` schedule (`total_utility`) on the
//!   compressed and sparse layouts;
//! * one point edit through `delta::apply`: `shift_interest` alternates a
//!   stored cell between two non-zero values (an overwrite in place; the
//!   sparse layout is the reference), and `shift_interest_toggle` flips a
//!   cell of a full compressed block between zero and non-zero, so every
//!   iteration converts that block between full and partial.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ses_algorithms::{Scheduler, SchedulerKind};
use ses_bench::{record_gauge, threaded_label, Threads, BENCH_THREADS};
use ses_core::delta::{self, DeltaOp};
use ses_core::model::{Instance, StorageKind, COMPRESSED_BLOCK};
use ses_core::scoring::utility::total_utility;
use ses_core::scoring::ScoringEngine;
use ses_core::{EventId, IntervalId};
use ses_datasets::{scale, InterestModel, SyntheticParams};
use std::hint::black_box;

const USERS: usize = 100_000;
const K: usize = 12;

fn params() -> SyntheticParams {
    SyntheticParams {
        num_users: USERS,
        num_events: 5 * K,
        num_intervals: 3 * K / 2,
        competing_per_interval: (1, 3),
        interest: InterestModel::Zipf { s: 2.0 },
        interest_levels: 256,
        seed: 0x100_000,
        ..SyntheticParams::default()
    }
}

fn bench(c: &mut Criterion) {
    let p = params();
    let mut group = c.benchmark_group("scale_100k");
    group.sample_size(5);

    for kind in [StorageKind::Sparse, StorageKind::Compressed] {
        group.bench_with_input(BenchmarkId::new("build", kind.name()), &kind, |b, &k| {
            b.iter(|| black_box(scale::build(&p, k)))
        });
    }

    let sparse = scale::build(&p, StorageKind::Sparse);
    let compressed = scale::build(&p, StorageKind::Compressed);
    let (sb, cb) = (sparse.event_interest.heap_bytes(), compressed.event_interest.heap_bytes());
    assert!(
        cb * 3 <= sb,
        "acceptance bar: compressed interest ({cb} B) must be <= 1/3 of sparse ({sb} B)"
    );
    record_gauge("scale_100k/heap_bytes/sparse", sb as u64);
    record_gauge("scale_100k/heap_bytes/compressed", cb as u64);
    record_gauge("scale_100k/heap_bytes/instance_compressed", compressed.heap_bytes() as u64);

    for threads in BENCH_THREADS {
        let t = threaded_label("compressed", threads);
        let mut engine = ScoringEngine::with_threads(&compressed, Threads::new(threads));
        engine.apply(EventId::new(1), IntervalId::new(0));
        group.bench_with_input(BenchmarkId::new("assignment_score", &t), &t, |b, _| {
            b.iter(|| black_box(engine.assignment_score(EventId::new(0), IntervalId::new(0))))
        });
    }

    // One end-to-end INC schedule at 100k users: the layer every layout
    // change must leave bit-identical, timed on the compressed backend.
    group.sample_size(3);
    group.bench_with_input(BenchmarkId::new("inc_end_to_end", "compressed/t4"), &K, |b, &k| {
        b.iter(|| black_box(SchedulerKind::Inc.run_threaded(&compressed, k, Threads::new(4))))
    });

    // Ω(S) of one fixed INC schedule: the evaluator every scheduler call,
    // warm repair and checked load runs once, outside the scheduler clock.
    group.sample_size(5);
    let schedule = SchedulerKind::Inc.run_threaded(&compressed, K, Threads::new(4)).schedule;
    for (name, inst) in [("compressed", &compressed), ("sparse", &sparse)] {
        group.bench_with_input(BenchmarkId::new("total_utility", name), inst, |b, inst| {
            b.iter(|| black_box(total_utility(inst, &schedule)))
        });
    }

    // Point edits are microseconds: one iteration per sample, many samples.
    group.sample_size(51);
    for (name, inst) in [("sparse", &sparse), ("compressed", &compressed)] {
        let mut live = inst.clone();
        assert!(live.event_interest.column_len(0) > 0, "event 0 has interest");
        let mut stored = (0, 0.0);
        live.event_interest.for_each_in_part(0, 0..1, |u, v| stored = (u, v));
        let (user, first) = stored;
        let second = if first == 0.5 { 0.25 } else { 0.5 };
        let mut flip = false;
        group.bench_with_input(BenchmarkId::new("shift_interest", name), &user, |b, &user| {
            b.iter(|| {
                flip = !flip;
                shift(&mut live, user, if flip { second } else { first });
            })
        });
    }
    drop(sparse);

    // Fill block 0 of event 0, then flip one of its cells: each iteration
    // turns the full block partial (511 offsets spliced in) or back.
    let mut live = compressed.clone();
    for user in 0..COMPRESSED_BLOCK {
        if live.event_interest.value(0, user) == 0.0 {
            shift(&mut live, user, 0.5);
        }
    }
    let mut zeroed = false;
    group.bench_with_input(
        BenchmarkId::new("shift_interest_toggle", "compressed"),
        &7usize,
        |b, &user| {
            b.iter(|| {
                zeroed = !zeroed;
                shift(&mut live, user, if zeroed { 0.0 } else { 0.5 });
            })
        },
    );
    group.finish();
}

/// Applies one `ShiftInterest` on event 0.
fn shift(inst: &mut Instance, user: usize, interest: f64) {
    let op = DeltaOp::ShiftInterest { event: EventId::new(0), user, interest };
    black_box(delta::apply(inst, &op).expect("valid shift"));
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! The differential proof behind windowed ingestion: for every dataset
//! family × window size × thread count, repairing a stream **one
//! coalesced window at a time** must be bit-identical to repairing it
//! **one op at a time** — the same live instance, the same assignment
//! sequence, the same utility bits — and bit-identical to a **cold
//! rebuild** of the materialized instance at every window boundary. The
//! windowed repair's full `Stats` must also be invariant across thread
//! counts, extending the `tests/stream_equivalence.rs` contract to the
//! batch path.

use social_event_scheduling::algorithms::stream::StreamScheduler;
use social_event_scheduling::core::delta;
use social_event_scheduling::core::model::{Instance, StorageKind};
use social_event_scheduling::core::parallel::Threads;
use social_event_scheduling::datasets::ops::{self, BurstParams, OpStreamParams};
use social_event_scheduling::datasets::Dataset;

const K: usize = 8;
const OPS: usize = 180;
const WINDOWS: &[usize] = &[1, 7, 32];

struct Scenario {
    dataset: Dataset,
    churn: f64,
    user_churn: f64,
    density: f64,
    constraint_churn: f64,
    /// Redundant-follower pressure; above zero the scenario streams the
    /// bursty feed instead of the bare backbone.
    redundancy: f64,
    seed: u64,
    /// Interest-storage override for the live base (`None` = native).
    storage: Option<StorageKind>,
}

fn feed_for(s: &Scenario, base: &Instance) -> Vec<delta::DeltaOp> {
    let params = OpStreamParams::default()
        .with_ops(OPS)
        .with_churn(s.churn)
        .with_user_churn(s.user_churn)
        .with_interest_density(s.density)
        .with_constraint_churn(s.constraint_churn)
        .with_seed(s.seed ^ 0x5EED);
    if s.redundancy > 0.0 {
        let burst = BurstParams::default().with_ops(params).with_redundancy(s.redundancy);
        ops::generate_bursts(base, &burst).into_iter().map(|t| t.op).collect()
    } else {
        ops::generate(base, &params)
    }
}

fn run_scenario(s: &Scenario) {
    let mut base = s.dataset.build(60, 16, 6, s.seed);
    if let Some(kind) = s.storage {
        base.event_interest = base.event_interest.convert_to(kind);
        base.competing_interest = base.competing_interest.convert_to(kind);
    }
    let feed = feed_for(s, &base);
    for &window in WINDOWS {
        let label = format!("{}/window={window}", s.dataset.name());
        let (mut i1, mut i4, mut serial_inst) = (base.clone(), base.clone(), base.clone());
        let mut w1 = StreamScheduler::new(&i1, K, Threads::sequential());
        let mut w4 = StreamScheduler::new(&i4, K, Threads::new(4));
        let mut serial = StreamScheduler::new(&serial_inst, K, Threads::sequential());
        let mut mat = base.clone();
        for (w, chunk) in feed.chunks(window).enumerate() {
            for (j, op) in chunk.iter().enumerate() {
                delta::apply(&mut mat, op)
                    .unwrap_or_else(|e| panic!("{label} window {w} op {j}: {e}"));
                serial
                    .apply(&mut serial_inst, op)
                    .unwrap_or_else(|e| panic!("{label} window {w} op {j}: {e}"));
            }
            let r1 = w1
                .repair_batch(&mut i1, chunk)
                .unwrap_or_else(|e| panic!("{label} window {w}: {e}"))
                .clone();
            let r4 = w4
                .repair_batch(&mut i4, chunk)
                .unwrap_or_else(|e| panic!("{label} window {w}: {e}"));

            // Thread count never changes a windowed repair: same full
            // Stats, same schedule, same utility bits.
            assert_eq!(r1.stats, r4.stats, "{label} window {w}: stats diverged across threads");
            assert_eq!(
                w1.schedule().assignments(),
                w4.schedule().assignments(),
                "{label} window {w}: schedules diverged across threads"
            );
            assert_eq!(w1.utility().to_bits(), w4.utility().to_bits(), "{label} window {w}");

            // The coalesced batch lands on the op-at-a-time instance
            // exactly — and both live instances track the independent
            // materialization.
            assert!(i1 == mat, "{label} window {w}: windowed instance drifted");
            assert!(serial_inst == mat, "{label} window {w}: serial instance drifted");

            // Bit-identity to the op-at-a-time repair path...
            assert_eq!(
                w1.schedule().assignments(),
                serial.schedule().assignments(),
                "{label} window {w}: windowed repair diverged from op-at-a-time"
            );
            assert_eq!(
                w1.utility().to_bits(),
                serial.utility().to_bits(),
                "{label} window {w}: utility bits diverged from op-at-a-time"
            );

            // ...and to a cold rebuild of the same post-window instance.
            let cold = StreamScheduler::new(&mat, K, Threads::sequential());
            assert_eq!(
                w1.schedule().assignments(),
                cold.schedule().assignments(),
                "{label} window {w}: windowed repair diverged from cold rebuild"
            );
            assert_eq!(
                w1.utility().to_bits(),
                cold.utility().to_bits(),
                "{label} window {w}: utility bits diverged from cold rebuild"
            );
        }
        // Coalescing only ever drops ops: the windowed scheduler applied
        // at most as many as the serial one, and with any window wider
        // than one op the redundant scenarios applied strictly fewer.
        assert!(
            w1.ops_applied() <= serial.ops_applied(),
            "{label}: windowed path applied more ops than serial"
        );
        if window > 1 && s.redundancy > 0.0 {
            assert!(
                w1.ops_applied() < serial.ops_applied(),
                "{label}: a redundant feed should coalesce at least one op away"
            );
        }
    }
}

#[test]
fn unf_moderate_churn_with_constraints() {
    run_scenario(&Scenario {
        dataset: Dataset::Unf,
        churn: 0.3,
        user_churn: 0.3,
        density: 1.0,
        constraint_churn: 0.2,
        redundancy: 0.0,
        seed: 0xA11,
        storage: None,
    });
}

#[test]
fn zip_heavy_structural_churn() {
    run_scenario(&Scenario {
        dataset: Dataset::Zip,
        churn: 0.8,
        user_churn: 0.5,
        density: 1.0,
        constraint_churn: 0.0,
        redundancy: 0.0,
        seed: 0xB22,
        storage: None,
    });
}

#[test]
fn meetup_sparse_redundant_bursts() {
    run_scenario(&Scenario {
        dataset: Dataset::Meetup,
        churn: 0.5,
        user_churn: 0.4,
        density: 0.25,
        constraint_churn: 0.0,
        redundancy: 0.6,
        seed: 0xC33,
        storage: None,
    });
}

/// The compressed columnar base under redundant bursty windows: batch
/// coalescing, per-op repair, and cold rebuilds must all agree bit for bit
/// while the interest matrices live in the dictionary-encoded layout.
#[test]
fn unf_compressed_redundant_bursts() {
    run_scenario(&Scenario {
        dataset: Dataset::Unf,
        churn: 0.4,
        user_churn: 0.3,
        density: 1.0,
        constraint_churn: 0.2,
        redundancy: 0.5,
        seed: 0xD44,
        storage: Some(StorageKind::Compressed),
    });
}

//! The differential layer behind the constraint subsystem: **every
//! candidate generator, on every constrained family, emits feasible
//! schedules — and an empty constraint set changes nothing, bit for bit.**
//!
//! Three pillars:
//!
//! * **Feasibility matrix** — every scheduler (the eight greedy/baseline
//!   kinds plus the stream repairer) × every [`ConstraintFamily`] preset ×
//!   threads 1/2/8, with each schedule re-checked by an *independent*
//!   validator written in this file from the §2.1 + constraint definitions
//!   — no shared code with `Schedule::check_assign`, so a bug in the
//!   production gate cannot vouch for itself.
//! * **Oracle dominance** — on tractable shapes, constrained EXACT is
//!   feasible and its utility weakly dominates every greedy scheduler,
//!   pinning EXACT as the optimality oracle over the constrained space.
//! * **Empty-set pinning** — installing an explicitly empty
//!   [`ConstraintSet`] leaves all nine registry schedulers *and* the
//!   stream repairer bit-identical (assignment sequence, utility bits,
//!   full [`Stats`]) to the unconstrained run, so the constraint hook in
//!   the hot path is provably free when unused.
//!
//! [`ConstraintSet`]: social_event_scheduling::core::constraints::ConstraintSet
//! [`Stats`]: social_event_scheduling::Stats

use social_event_scheduling::algorithms::stream::StreamScheduler;
use social_event_scheduling::algorithms::{Scheduler, SchedulerKind};
use social_event_scheduling::core::parallel::{Threads, PAR_BLOCK};
use social_event_scheduling::datasets::{ConstraintFamily, Dataset};
use social_event_scheduling::{Instance, Schedule};

/// Thread counts of the matrix (sequential reference plus two widths).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Enough users for ≥ 2 reduction blocks per dense column, so the
/// threaded sweeps really run their parallel paths.
const USERS: usize = PAR_BLOCK + 293;

/// Every scheduler kind that runs at scale (EXACT gets its own tractable
/// shapes below).
const SCALABLE: [SchedulerKind; 8] = [
    SchedulerKind::Alg,
    SchedulerKind::Inc,
    SchedulerKind::Hor,
    SchedulerKind::HorI,
    SchedulerKind::Top,
    SchedulerKind::Rand(7),
    SchedulerKind::Lazy,
    SchedulerKind::RefinedHor,
];

/// Independent feasibility validator: re-derives every rule from the
/// definitions (§2.1 occupancy/resources plus the three constraint
/// families) over the raw assignment list, sharing no code with the
/// production `check_assign` gate.
fn validate_independently(inst: &Instance, schedule: &Schedule, label: &str) {
    let assignments = schedule.assignments();
    let num_intervals = inst.num_intervals();

    // No event twice.
    for (i, a) in assignments.iter().enumerate() {
        assert!(
            !assignments[..i].iter().any(|b| b.event == a.event),
            "{label}: event {:?} scheduled twice",
            a.event
        );
    }

    // §2.1: per-interval location exclusivity and resource budget θ, with
    // duration-d events occupying d consecutive intervals.
    let spans = |e: usize, t: usize| {
        let d = inst.events[e].duration as usize;
        t..t + d
    };
    for a in assignments {
        let end = spans(a.event.index(), a.interval.index()).end;
        assert!(end <= num_intervals, "{label}: {:?} runs off the calendar", a.event);
    }
    for ti in 0..num_intervals {
        let here: Vec<usize> = assignments
            .iter()
            .filter(|a| spans(a.event.index(), a.interval.index()).contains(&ti))
            .map(|a| a.event.index())
            .collect();
        for (i, &e) in here.iter().enumerate() {
            for &f in &here[i + 1..] {
                assert_ne!(
                    inst.events[e].location, inst.events[f].location,
                    "{label}: interval {ti} double-books a location (events {e}, {f})"
                );
            }
        }
        let used: f64 = here.iter().map(|&e| inst.events[e].required_resources).sum();
        assert!(
            used <= inst.resources + 1e-9,
            "{label}: interval {ti} uses {used} of θ = {}",
            inst.resources
        );
    }

    // Venue capacities: total slots per location across the schedule.
    for v in inst.constraints.venue_capacities() {
        let used: u64 = assignments
            .iter()
            .filter(|a| inst.events[a.event.index()].location == v.location)
            .map(|a| u64::from(inst.events[a.event.index()].duration))
            .sum();
        assert!(
            used <= u64::from(v.capacity),
            "{label}: location {:?} uses {used} slots of capacity {}",
            v.location,
            v.capacity
        );
    }

    // Conflicts: never both endpoints scheduled.
    for p in inst.constraints.conflicts() {
        let both = assignments.iter().any(|a| a.event == p.a)
            && assignments.iter().any(|a| a.event == p.b);
        assert!(!both, "{label}: conflict {:?} – {:?} violated", p.a, p.b);
    }

    // Precedence: when both are scheduled, `before` finishes before
    // `after` starts.
    for e in inst.constraints.precedences() {
        let start_of = |ev| assignments.iter().find(|a| a.event == ev).map(|a| a.interval.index());
        if let (Some(tb), Some(ta)) = (start_of(e.before), start_of(e.after)) {
            let d = inst.events[e.before.index()].duration as usize;
            assert!(
                tb + d <= ta,
                "{label}: precedence {:?} → {:?} violated ({tb}+{d} > {ta})",
                e.before,
                e.after
            );
        }
    }
}

/// Pillar 1: the full feasibility matrix. Every scalable scheduler and
/// the stream repairer, on every constrained family, at every thread
/// count, yields an independently-validated feasible schedule — and the
/// constrained results are themselves bit-identical across thread counts.
#[test]
fn all_schedulers_feasible_on_every_constrained_family() {
    for (d, dataset) in [Dataset::Unf, Dataset::Meetup].into_iter().enumerate() {
        for family in ConstraintFamily::ALL {
            let mut inst = dataset.build(USERS, 24, 6, 0xC0DE + d as u64);
            family.apply(&mut inst, 0xFA + d as u64);
            assert!(inst.validate().is_ok());
            let label = format!("{}/{}", dataset.name(), family.name());
            for &kind in &SCALABLE {
                let reference = kind.run_threaded(&inst, 8, Threads::sequential());
                validate_independently(&inst, &reference.schedule, &label);
                for &n in &THREAD_COUNTS[1..] {
                    let par = kind.run_threaded(&inst, 8, Threads::new(n));
                    validate_independently(&inst, &par.schedule, &label);
                    assert_eq!(
                        reference.schedule.assignments(),
                        par.schedule.assignments(),
                        "{label}/{}/t{n}: constrained schedule diverged",
                        kind.name()
                    );
                    assert_eq!(
                        reference.utility.to_bits(),
                        par.utility.to_bits(),
                        "{label}/{}/t{n}: constrained utility bits diverged",
                        kind.name()
                    );
                    assert_eq!(
                        reference.stats,
                        par.stats,
                        "{label}/{}/t{n}: constrained stats diverged",
                        kind.name()
                    );
                }
            }
            // The tenth generator: the warm stream repairer.
            for &n in &THREAD_COUNTS {
                let stream = StreamScheduler::new(&inst, 8, Threads::new(n));
                validate_independently(&inst, stream.schedule(), &format!("{label}/stream"));
            }
        }
    }
}

/// Pillar 2: constrained EXACT stays the optimality oracle. On shapes
/// small enough to enumerate, its schedule is independently feasible and
/// its utility weakly dominates every other scheduler under the same
/// constraints.
#[test]
fn constrained_exact_dominates_every_scheduler_on_tractable_shapes() {
    for family in ConstraintFamily::ALL {
        let mut inst = Dataset::Zip.build(120, 8, 3, 0xE6);
        family.apply(&mut inst, 0x0E);
        assert!(inst.validate().is_ok());
        let label = format!("Zip-tiny/{}", family.name());

        let exact = SchedulerKind::Exact.run_threaded(&inst, 3, Threads::sequential());
        validate_independently(&inst, &exact.schedule, &label);
        for &kind in &SCALABLE {
            let res = kind.run_threaded(&inst, 3, Threads::sequential());
            validate_independently(&inst, &res.schedule, &label);
            assert!(
                res.utility <= exact.utility + 1e-9,
                "{label}: {} beat constrained EXACT ({} > {})",
                kind.name(),
                res.utility,
                exact.utility
            );
        }
    }
}

/// Pillar 3: an explicitly-installed empty constraint set leaves every
/// scheduler — all nine registry kinds plus the stream repairer —
/// bit-identical to the unconstrained run: same assignment sequence, same
/// utility mantissa, same full `Stats` record.
#[test]
fn empty_constraint_set_pins_bit_identical_output() {
    let free = Dataset::Concerts.build(USERS, 9, 3, 0xB17);
    let mut pinned = free.clone();
    pinned.constraints = social_event_scheduling::core::constraints::ConstraintSet::new();
    assert!(pinned.constraints.is_empty());

    let kinds = [
        SchedulerKind::Alg,
        SchedulerKind::Inc,
        SchedulerKind::Hor,
        SchedulerKind::HorI,
        SchedulerKind::Top,
        SchedulerKind::Rand(7),
        SchedulerKind::Lazy,
        SchedulerKind::RefinedHor,
        SchedulerKind::Exact, // 9 events × 3 intervals: tractable
    ];
    for kind in kinds {
        let a = kind.run_threaded(&free, 4, Threads::sequential());
        let b = kind.run_threaded(&pinned, 4, Threads::sequential());
        assert_eq!(
            a.schedule.assignments(),
            b.schedule.assignments(),
            "{}: empty set changed the schedule",
            kind.name()
        );
        assert_eq!(
            a.utility.to_bits(),
            b.utility.to_bits(),
            "{}: empty set changed utility bits",
            kind.name()
        );
        assert_eq!(a.stats, b.stats, "{}: empty set changed stats", kind.name());
    }

    let a = StreamScheduler::new(&free, 4, Threads::sequential());
    let b = StreamScheduler::new(&pinned, 4, Threads::sequential());
    assert_eq!(a.schedule().assignments(), b.schedule().assignments());
    assert_eq!(a.utility().to_bits(), b.utility().to_bits());
    assert_eq!(a.last_repair().stats, b.last_repair().stats);
}

/// Pillar 4: the bound-first gate stays selection-neutral *under
/// constraints*. For every gated scheduler × family × thread count, the
/// gated run reproduces the ungated schedule, utility bits, and non-skip
/// stats exactly — the gate defers scoring, never admission, so the
/// feasibility gate's verdicts are identical either way — and the skip
/// counter still fires somewhere in the constrained matrix.
#[test]
fn constrained_gate_on_matches_gate_off_bit_for_bit() {
    use social_event_scheduling::algorithms::{RunConfig, Scratch};

    let gated = [SchedulerKind::Inc, SchedulerKind::HorI, SchedulerKind::Lazy];
    let mut total_skips = 0u64;
    for family in ConstraintFamily::ALL {
        let mut inst = Dataset::Meetup.build(150, 40, 12, 0x6A7E);
        family.apply(&mut inst, 0x9A7E);
        assert!(inst.validate().is_ok());
        for kind in gated {
            for &n in &THREAD_COUNTS {
                let cfg = RunConfig::threaded(Threads::new(n));
                let plain = kind.run_configured(&inst, 8, cfg, &mut Scratch::new());
                let on =
                    kind.run_configured(&inst, 8, cfg.with_bound_gate(true), &mut Scratch::new());
                let label = format!("{}/{}/t{n}", family.name(), kind.name());
                validate_independently(&inst, &on.schedule, &label);
                assert_eq!(
                    plain.schedule.assignments(),
                    on.schedule.assignments(),
                    "{label}: gate changed the constrained schedule"
                );
                assert_eq!(
                    plain.utility.to_bits(),
                    on.utility.to_bits(),
                    "{label}: gate changed constrained utility bits"
                );
                assert_eq!(
                    plain.stats.selections, on.stats.selections,
                    "{label}: gate changed selection count"
                );
                total_skips += on.stats.bound_skips;
            }
        }
    }
    assert!(total_skips > 0, "gate never fired across the constrained matrix");
}

/// Pillar 6 (storage axis): converting a constrained instance's interest
/// matrices to the compressed columnar layout changes nothing — every
/// scalable scheduler emits the same assignment sequence, utility bits,
/// and full `Stats` it emits on the native layout, for every constraint
/// family, and the schedules stay independently feasible.
#[test]
fn constrained_runs_bit_identical_on_compressed_storage() {
    use social_event_scheduling::core::model::StorageKind;

    for family in ConstraintFamily::ALL {
        let mut native = Dataset::Unf.build(USERS, 24, 6, 0xC0DE);
        family.apply(&mut native, 0xFA);
        let mut compressed = native.clone();
        compressed.event_interest = native.event_interest.convert_to(StorageKind::Compressed);
        compressed.competing_interest =
            native.competing_interest.convert_to(StorageKind::Compressed);
        let label = format!("Unf-compressed/{}", family.name());
        for &kind in &SCALABLE {
            for &n in &THREAD_COUNTS {
                let a = kind.run_threaded(&native, 8, Threads::new(n));
                let b = kind.run_threaded(&compressed, 8, Threads::new(n));
                validate_independently(&compressed, &b.schedule, &label);
                assert_eq!(
                    a.schedule.assignments(),
                    b.schedule.assignments(),
                    "{label}/{}/t{n}: schedule diverged across storage",
                    kind.name()
                );
                assert_eq!(
                    a.utility.to_bits(),
                    b.utility.to_bits(),
                    "{label}/{}/t{n}: utility bits diverged across storage",
                    kind.name()
                );
                assert_eq!(a.stats, b.stats, "{label}/{}/t{n}", kind.name());
            }
        }
    }
}

/// Pillar 5: the dynamic side of the matrix. A constraint-churning op
/// stream over a constrained base repairs bit-identically at 1/2/8
/// threads, every intermediate repair stays independently feasible under
/// the live rules, and the final state matches a cold rebuild of the
/// materialized instance bit for bit.
#[test]
fn constrained_churning_streams_stay_feasible_and_thread_invariant() {
    use social_event_scheduling::core::delta;
    use social_event_scheduling::datasets::ops::{self, OpStreamParams};

    let mut base = Dataset::Unf.build(160, 18, 6, 0x5EED);
    ConstraintFamily::Mixed.apply(&mut base, 0x5EED);
    let params = OpStreamParams::default()
        .with_ops(60)
        .with_churn(0.3)
        .with_constraint_churn(0.35)
        .with_seed(0xD1CE);
    let stream_ops = ops::generate(&base, &params);

    let mut reference: Option<Vec<_>> = None;
    for &n in &THREAD_COUNTS {
        let mut stream_inst = base.clone();
        let mut stream = StreamScheduler::new(&stream_inst, 6, Threads::new(n));
        let mut live = base.clone();
        let mut trace = Vec::new();
        for op in &stream_ops {
            delta::apply(&mut live, op).expect("generated ops are valid");
            stream.apply(&mut stream_inst, op).expect("generated ops are valid");
            validate_independently(&live, stream.schedule(), &format!("churn/t{n}"));
            trace.push((stream.schedule().assignments().to_vec(), stream.utility().to_bits()));
        }
        // Final state ≡ a cold rebuild of the materialized instance.
        let cold = StreamScheduler::new(&live, 6, Threads::new(n));
        assert_eq!(stream.schedule().assignments(), cold.schedule().assignments());
        assert_eq!(stream.utility().to_bits(), cold.utility().to_bits());
        match &reference {
            None => reference = Some(trace),
            Some(r) => assert_eq!(r, &trace, "t{n}: constrained repair trace diverged from t1"),
        }
    }
}

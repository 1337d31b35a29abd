//! Property-based tests for the core substrate: the Luce-gain function,
//! scoring-engine invariants, interest-matrix layout equivalence, and
//! schedule feasibility bookkeeping.

use proptest::prelude::*;
use ses_algorithms::prelude::Scheduler;
use ses_algorithms::SchedulerKind;
use ses_core::ids::{EventId, IntervalId, LocationId};
use ses_core::model::{
    ActivityMatrix, CompetingEvent, DenseInterest, Event, Instance, InstanceBuilder,
    InterestMatrix, StorageKind,
};
use ses_core::parallel::{Threads, PAR_BLOCK};
use ses_core::schedule::Schedule;
use ses_core::scoring::utility::{expected_attendance, total_profit, total_utility};
use ses_core::scoring::{gain, ScoringEngine};

/// Quantized probability in [0, 1] (steps of 1/64) — avoids degenerate
/// float noise while still hitting exact 0 and 1.
fn prob() -> impl Strategy<Value = f64> {
    (0u8..=64).prop_map(|x| x as f64 / 64.0)
}

/// A small random instance: up to 6 events, 3 intervals, 5 users,
/// 4 competing events, 3 locations.
fn small_instance() -> impl Strategy<Value = Instance> {
    let dims = (1usize..=6, 1usize..=3, 1usize..=5, 0usize..=4);
    dims.prop_flat_map(|(ne, nt, nu, nc)| {
        (
            Just(ne),
            Just(nt),
            Just(nu),
            Just(nc),
            proptest::collection::vec(0usize..3, ne), // locations
            proptest::collection::vec(prob(), ne * nu), // event interest
            proptest::collection::vec(prob(), nc * nu), // competing interest
            proptest::collection::vec(prob(), nu * nt), // activity
            proptest::collection::vec(0usize..64, nc.max(1)), // competing interval picks
        )
    })
    .prop_map(|(ne, nt, nu, nc, locs, ev, cv, act, cints)| {
        let mut b = InstanceBuilder::new();
        for &l in &locs {
            b.add_event(Event::new(LocationId::new(l), 1.0));
        }
        b.add_intervals(nt);
        for c in cints.iter().take(nc) {
            b.add_competing(CompetingEvent::new(IntervalId::new(c % nt)));
        }
        b.event_interest(DenseInterest::from_raw(ne, nu, ev).unwrap())
            .competing_interest(DenseInterest::from_raw(nc, nu, cv).unwrap())
            .activity(ActivityMatrix::from_raw(nu, nt, act).unwrap())
            .resources(100.0)
            .build()
            .unwrap()
    })
}

/// An instance whose dense columns span **multiple** `PAR_BLOCK` reduction
/// blocks — the regime where the parallel user sweep actually splits work.
/// Matrices are generated from a seed with a local xorshift instead of
/// element-wise proptest vectors (thousands of entries per case).
fn wide_instance() -> impl Strategy<Value = Instance> {
    let users = PAR_BLOCK + 9..3 * PAR_BLOCK;
    (2usize..=4, 1usize..=2, users, 0usize..=3, 0u64..1_000_000).prop_map(
        |(ne, nt, nu, nc, seed)| {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            // Quantized probabilities (steps of 1/64), like `prob()`.
            let mut p = move || (next() % 65) as f64 / 64.0;
            let mut b = InstanceBuilder::new();
            for l in 0..ne {
                b.add_event(Event::new(LocationId::new(l % 3), 1.0));
            }
            b.add_intervals(nt);
            for c in 0..nc {
                b.add_competing(CompetingEvent::new(IntervalId::new(c % nt)));
            }
            b.event_interest(DenseInterest::from_fn(ne, nu, |_, _| p()))
                .competing_interest(DenseInterest::from_fn(nc, nu, |_, _| p()))
                .activity(
                    ActivityMatrix::from_raw(nu, nt, (0..nu * nt).map(|_| p()).collect()).unwrap(),
                )
                .resources(100.0)
                .build()
                .unwrap()
        },
    )
}

/// An instance of 3–5 user blocks (the last one possibly short) whose
/// event columns mix, per `(event, block)`, full blocks, nearly full ones
/// (a few holes), sparse ones, one-entry ones and empty ones.
fn blocky_instance() -> impl Strategy<Value = Instance> {
    (3usize..=5, 0usize..PAR_BLOCK / 2, 2usize..=4, 1usize..=2, 0usize..=2, 0u64..1_000_000)
        .prop_map(|(blocks, short, ne, nt, nc, seed)| {
            let nu = blocks * PAR_BLOCK - short;
            let hash = move |a: usize, b: usize| {
                let mut x = seed
                    ^ (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                x ^= x >> 29;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^ (x >> 32)
            };
            let level = move |a: usize, b: usize| (1 + hash(a, b) % 64) as f64 / 64.0;
            let interest = DenseInterest::from_fn(ne, nu, |e, u| {
                let (block, local) = (u / PAR_BLOCK, u % PAR_BLOCK);
                let keep = match hash(e, nu + block) % 5 {
                    0 => true,
                    1 => hash(e, u) % 97 != 0,
                    2 => hash(e, u) % 8 == 0,
                    3 => local == hash(e, 2 * nu + block) as usize % 64,
                    _ => false,
                };
                if keep {
                    level(e, u)
                } else {
                    0.0
                }
            });
            let mut b = InstanceBuilder::new();
            for l in 0..ne {
                b.add_event(Event::new(LocationId::new(l % 3), 1.0));
            }
            b.add_intervals(nt);
            for c in 0..nc {
                b.add_competing(CompetingEvent::new(IntervalId::new(c % nt)));
            }
            b.event_interest(interest)
                .competing_interest(DenseInterest::from_fn(nc, nu, |c, u| level(ne + c, u)))
                .activity(
                    ActivityMatrix::from_raw(nu, nt, (0..nu * nt).map(|i| level(99, i)).collect())
                        .unwrap(),
                )
                .resources(100.0)
                .build()
                .unwrap()
        })
}

/// Stored entries per 512-user block of each event column.
fn block_counts(inst: &Instance) -> Vec<Vec<usize>> {
    let blocks = inst.num_users().div_ceil(PAR_BLOCK);
    (0..inst.num_events())
        .map(|e| {
            let mut counts = vec![0; blocks];
            inst.event_interest.for_each(e, |u, _| counts[u / PAR_BLOCK] += 1);
            counts
        })
        .collect()
}

/// The instance with its interest matrices converted to `kind`.
fn with_storage(inst: &Instance, kind: StorageKind) -> Instance {
    let mut out = inst.clone();
    out.event_interest = inst.event_interest.convert_to(kind);
    out.competing_interest = inst.competing_interest.convert_to(kind);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Parallel `score` equals sequential `score` **bit-for-bit**, on the
    /// dense, sparse, and compressed interest layouts, at every probed
    /// thread count — the engine-level core of the `ses-parallel`
    /// differential contract.
    #[test]
    fn parallel_scores_bit_identical(inst in wide_instance(), n in 2usize..=6) {
        let sparse = with_storage(&inst, StorageKind::Sparse);
        let compressed = with_storage(&inst, StorageKind::Compressed);
        for (layout, variant) in
            [("dense", &inst), ("sparse", &sparse), ("compressed", &compressed)]
        {
            let mut seq = ScoringEngine::new(variant);
            let mut par = ScoringEngine::with_threads(variant, Threads::new(n));
            for (e, t) in variant.assignment_universe() {
                let a = seq.assignment_score(e, t);
                let b = par.assignment_score(e, t);
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{} {:?}@{:?} t{}: {} vs {}", layout, e, t, n, a, b
                );
            }
            prop_assert_eq!(seq.stats(), par.stats(), "{} stats diverged", layout);
        }
    }

    /// `apply`/`unapply` round-trips under the **parallel** engine leave
    /// every score bit-identical (extends the sequential
    /// `apply_unapply_roundtrip` / `stale_scores_upper_bound` family to the
    /// threaded mass-update path, including the residue snapping).
    #[test]
    fn parallel_apply_unapply_leaves_scores_unchanged(
        inst in wide_instance(),
        n in 2usize..=6,
        pick in 0usize..64,
    ) {
        let mut eng = ScoringEngine::with_threads(&inst, Threads::new(n));
        let e = EventId::new(pick % inst.num_events());
        let t = IntervalId::new((pick / 7) % inst.num_intervals());
        let before: Vec<u64> = inst
            .assignment_universe()
            .map(|(e, t)| eng.assignment_score(e, t).to_bits())
            .collect();
        eng.apply(e, t);
        eng.unapply(e, t);
        let after: Vec<u64> = inst
            .assignment_universe()
            .map(|(e, t)| eng.assignment_score(e, t).to_bits())
            .collect();
        prop_assert_eq!(before, after, "round-trip perturbed a score bit (t{})", n);
    }

    /// Stale scores remain upper bounds under the parallel engine — the
    /// INC/HOR-I pruning invariant is thread-count independent.
    #[test]
    fn parallel_stale_scores_upper_bound(inst in wide_instance(), pick in 0usize..64) {
        let mut engine = ScoringEngine::with_threads(&inst, Threads::new(4));
        let e_applied = EventId::new(pick % inst.num_events());
        let t = IntervalId::new((pick / 7) % inst.num_intervals());
        let stale: Vec<f64> = (0..inst.num_events())
            .map(|e| engine.assignment_score(EventId::new(e), t))
            .collect();
        engine.apply(e_applied, t);
        for (e, bound) in stale.iter().enumerate() {
            if e == e_applied.index() {
                continue;
            }
            let fresh = engine.assignment_score(EventId::new(e), t);
            prop_assert!(
                fresh <= bound + 1e-12,
                "event {}: fresh {} exceeds stale bound {}", e, fresh, bound
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `gain` stays within [0, 1] for probability-scale inputs.
    #[test]
    fn gain_bounded(c in prob(), m in 0.0..20.0f64, mu in prob()) {
        let g = gain(c, m, mu);
        prop_assert!((0.0..=1.0).contains(&g), "gain({c}, {m}, {mu}) = {g}");
    }

    /// Monotonicity behind Proposition 1: gain never increases as the
    /// scheduled mass grows.
    #[test]
    fn gain_monotone_in_mass(c in prob(), m in 0.0..10.0f64, dm in prob(), mu in prob()) {
        let before = gain(c, m, mu);
        let after = gain(c, m + dm, mu);
        prop_assert!(after <= before + 1e-12, "gain must not grow: {before} -> {after}");
    }

    /// Zero interest contributes zero gain regardless of masses.
    #[test]
    fn gain_zero_interest(c in prob(), m in 0.0..10.0f64) {
        prop_assert_eq!(gain(c, m, 0.0), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Telescoping: the sum of assignment scores at selection time equals
    /// the independently evaluated Ω(S), for any feasible selection order.
    #[test]
    fn scores_telescope_to_utility(inst in small_instance(), order_seed in 0u64..1000) {
        let mut engine = ScoringEngine::new(&inst);
        let mut schedule = Schedule::new(&inst);
        let mut total = 0.0;
        // Deterministic pseudo-random assignment order from the seed.
        let mut x = order_seed;
        for _ in 0..inst.num_events() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let e = EventId::new((x >> 33) as usize % inst.num_events());
            let t = IntervalId::new((x >> 17) as usize % inst.num_intervals());
            if schedule.is_valid_assignment(&inst, e, t) {
                total += engine.assignment_score(e, t);
                engine.apply(e, t);
                schedule.assign(&inst, e, t).unwrap();
            }
        }
        let omega = total_utility(&inst, &schedule);
        prop_assert!((omega - total).abs() < 1e-9, "Ω = {omega}, Σ scores = {total}");
    }

    /// All three interest layouts produce **bit-identical** scores — zeros
    /// contribute exactly nothing to the blocked reduction (no -0.0 in
    /// probability data), so skipping them (sparse) or resolving dictionary
    /// codes (compressed) reproduces the dense partial sums bit for bit.
    #[test]
    fn dense_sparse_equivalence(inst in small_instance()) {
        let mut de = ScoringEngine::new(&inst);
        for kind in [StorageKind::Sparse, StorageKind::Compressed] {
            let variant = with_storage(&inst, kind);
            let mut se = ScoringEngine::new(&variant);
            for (e, t) in inst.assignment_universe() {
                let a = de.assignment_score(e, t);
                let b = se.assignment_score(e, t);
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{:?} {:?}: dense {} vs {} {}", e, t, a, kind, b
                );
            }
        }
    }

    /// Stale scores upper-bound refreshed scores after any apply
    /// (the engine-level fact INC's bound pruning relies on).
    #[test]
    fn stale_scores_upper_bound(inst in small_instance(), pick in 0usize..64) {
        let mut engine = ScoringEngine::new(&inst);
        let e_applied = EventId::new(pick % inst.num_events());
        let t = IntervalId::new((pick / 7) % inst.num_intervals());

        let stale: Vec<f64> = (0..inst.num_events())
            .map(|e| engine.assignment_score(EventId::new(e), t))
            .collect();
        engine.apply(e_applied, t);
        for (e, bound) in stale.iter().enumerate() {
            if e == e_applied.index() {
                continue;
            }
            let fresh = engine.assignment_score(EventId::new(e), t);
            prop_assert!(
                fresh <= bound + 1e-12,
                "event {e}: fresh {fresh} exceeds stale bound {bound}"
            );
        }
    }

    /// apply/unapply round-trips leave every score bit-identical.
    #[test]
    fn apply_unapply_roundtrip(inst in small_instance()) {
        let mut engine = ScoringEngine::new(&inst);
        let e = EventId::new(0);
        let t = IntervalId::new(0);
        let before: Vec<f64> = inst
            .assignment_universe()
            .map(|(e, t)| engine.assignment_score(e, t))
            .collect();
        engine.apply(e, t);
        engine.unapply(e, t);
        let after: Vec<f64> = inst
            .assignment_universe()
            .map(|(e, t)| engine.assignment_score(e, t))
            .collect();
        for (i, (a, b)) in before.iter().zip(&after).enumerate() {
            prop_assert!((a - b).abs() < 1e-12, "score {i} drifted: {a} -> {b}");
        }
    }

    /// The schedule's incremental feasibility bookkeeping always agrees
    /// with a from-scratch re-check.
    #[test]
    fn schedule_bookkeeping_consistent(inst in small_instance(), seed in 0u64..1000) {
        let mut schedule = Schedule::new(&inst);
        let mut x = seed;
        for step in 0..12 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let e = EventId::new((x >> 33) as usize % inst.num_events());
            let t = IntervalId::new((x >> 17) as usize % inst.num_intervals());
            if step % 3 == 2 && schedule.is_scheduled(e) {
                schedule.unassign(&inst, e).unwrap();
            } else if schedule.is_valid_assignment(&inst, e, t) {
                schedule.assign(&inst, e, t).unwrap();
            }
            prop_assert!(schedule.verify_feasible(&inst).is_ok());
        }
        // No event is double-booked; occupancy matches assignments.
        let mut seen = 0;
        for t in 0..inst.num_intervals() {
            seen += schedule.events_at(IntervalId::new(t)).len();
        }
        prop_assert_eq!(seen, schedule.len());
    }

    /// The engine's cached `share(u,t)` table stays **bitwise** equal to a
    /// recompute from the raw masses (`m̂/(C+m̂)` with the residue clamp)
    /// through arbitrary apply/unapply churn — on the dense, sparse, and
    /// compressed layouts, at 1, 2, and 8 worker threads. This is the invariant that
    /// lets the fused kernel drop a division per user without moving a bit.
    #[test]
    fn share_cache_matches_recompute_after_churn(inst in small_instance(), seed in 0u64..1000) {
        const MASS_SNAP: f64 = 1e-9;
        let sparse = with_storage(&inst, StorageKind::Sparse);
        let compressed = with_storage(&inst, StorageKind::Compressed);
        for (layout, variant) in
            [("dense", &inst), ("sparse", &sparse), ("compressed", &compressed)]
        {
            for threads in [1usize, 2, 8] {
                let mut engine = ScoringEngine::with_threads(variant, Threads::new(threads));
                let mut applied: Vec<(EventId, IntervalId)> = Vec::new();
                let mut x = seed | 1;
                for _ in 0..14 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let e = EventId::new((x >> 33) as usize % variant.num_events());
                    let t = IntervalId::new((x >> 17) as usize % variant.num_intervals());
                    if let Some(pos) = applied.iter().position(|&(ae, at)| ae == e && at == t) {
                        engine.unapply(e, t);
                        applied.swap_remove(pos);
                    } else {
                        engine.apply(e, t);
                        applied.push((e, t));
                    }
                    for u in 0..variant.num_users() {
                        for ti in 0..variant.num_intervals() {
                            let interval = IntervalId::new(ti);
                            let m = engine.scheduled_mass(u, interval);
                            let c = engine.competing_mass(u, interval);
                            let m_hat = if m < MASS_SNAP { 0.0 } else { m };
                            let tot = c + m_hat;
                            let want = if tot > 0.0 { m_hat / tot } else { 0.0 };
                            prop_assert_eq!(
                                engine.cached_share(u, interval).to_bits(),
                                want.to_bits(),
                                "{}/t{}: share(u{}, t{}) drifted", layout, threads, u, ti
                            );
                        }
                    }
                }
            }
        }
    }

    /// `score_bound` dominates the true assignment score at every reachable
    /// schedule state, on all three layouts — the soundness precondition of the
    /// bound-first gate (a skipped candidate can never have been the argmax).
    #[test]
    fn score_bound_is_sound(inst in small_instance(), seed in 0u64..1000) {
        let sparse = with_storage(&inst, StorageKind::Sparse);
        let compressed = with_storage(&inst, StorageKind::Compressed);
        for (layout, variant) in
            [("dense", &inst), ("sparse", &sparse), ("compressed", &compressed)]
        {
            let mut engine = ScoringEngine::new(variant);
            let mut schedule = Schedule::new(variant);
            let mut x = seed | 1;
            for _ in 0..4 {
                for (e, t) in variant.assignment_universe() {
                    let score = engine.assignment_score(e, t);
                    let bound = engine.score_bound(e, t);
                    prop_assert!(
                        bound >= score,
                        "{}: bound {} < score {} for {:?}@{:?}", layout, bound, score, e, t
                    );
                }
                // Advance the schedule state with one random valid apply.
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let e = EventId::new((x >> 33) as usize % variant.num_events());
                let t = IntervalId::new((x >> 17) as usize % variant.num_intervals());
                if schedule.is_valid_assignment(variant, e, t) {
                    schedule.assign(variant, e, t).unwrap();
                    engine.apply(e, t);
                }
            }
        }
    }

    /// Utility is always non-negative and bounded by the weighted user mass
    /// (each user contributes at most Σ_t σ(u,t) ≤ |T|).
    #[test]
    fn utility_bounds(inst in small_instance()) {
        let mut schedule = Schedule::new(&inst);
        for e in 0..inst.num_events() {
            for t in 0..inst.num_intervals() {
                let (e, t) = (EventId::new(e), IntervalId::new(t));
                if schedule.is_valid_assignment(&inst, e, t) {
                    schedule.assign(&inst, e, t).unwrap();
                    break;
                }
            }
        }
        let omega = total_utility(&inst, &schedule);
        prop_assert!(omega >= 0.0);
        let cap = inst.num_users() as f64 * inst.num_intervals() as f64;
        prop_assert!(omega <= cap + 1e-9, "Ω = {omega} exceeds cap {cap}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cross-backend delta-op churn: the same random op sequence (interest
    /// drift, event arrivals/cancellations, user joins/retirements) applied
    /// to the dense, sparse, and compressed copies of one instance keeps
    /// all three backends value-identical (converted back to dense) and
    /// their scoring engines **bit-identical** after every op.
    #[test]
    fn backends_stay_identical_under_delta_churn(inst in small_instance(), seed in 0u64..1000) {
        use ses_core::delta::{self, DeltaOp, NewUser};

        let mut dense = inst.clone();
        let mut sparse = with_storage(&inst, StorageKind::Sparse);
        let mut compressed = with_storage(&inst, StorageKind::Compressed);

        let mut x = seed | 1;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 16
        };
        for step in 0..10 {
            let nu = dense.num_users();
            let ne = dense.num_events();
            let nc = dense.competing_interest.num_items();
            let nt = dense.num_intervals();
            let q = |v: u64| (v % 65) as f64 / 64.0;
            let op = match next() % 5 {
                0 | 1 => DeltaOp::ShiftInterest {
                    event: EventId::new(next() as usize % ne),
                    user: next() as usize % nu,
                    interest: q(next()),
                },
                2 => DeltaOp::AddEvent {
                    event: Event::new(LocationId::new(next() as usize % 3), 1.0),
                    interest: (0..nu).map(|_| q(next())).collect(),
                },
                3 if ne > 1 => DeltaOp::RemoveEvent { event: EventId::new(next() as usize % ne) },
                _ => DeltaOp::AddUsers {
                    users: vec![NewUser {
                        event_interest: (0..ne).map(|_| q(next())).collect(),
                        competing_interest: (0..nc).map(|_| q(next())).collect(),
                        activity: (0..nt).map(|_| q(next())).collect(),
                        weight: None,
                    }],
                },
            };
            delta::apply(&mut dense, &op).expect("op valid on dense");
            delta::apply(&mut sparse, &op).expect("op valid on sparse");
            delta::apply(&mut compressed, &op).expect("op valid on compressed");

            // Layouts survive mutation (no silent densification)...
            prop_assert_eq!(sparse.event_interest.storage_kind(), StorageKind::Sparse);
            prop_assert_eq!(compressed.event_interest.storage_kind(), StorageKind::Compressed);
            // ...hold identical values...
            prop_assert_eq!(
                &with_storage(&sparse, StorageKind::Dense), &dense,
                "step {}: sparse drifted from dense", step
            );
            prop_assert_eq!(
                &with_storage(&compressed, StorageKind::Dense), &dense,
                "step {}: compressed drifted from dense", step
            );
            // ...and score bit-identically.
            let mut d = ScoringEngine::new(&dense);
            let mut s = ScoringEngine::new(&sparse);
            let mut c = ScoringEngine::new(&compressed);
            for (e, t) in dense.assignment_universe() {
                let a = d.assignment_score(e, t);
                prop_assert_eq!(a.to_bits(), s.assignment_score(e, t).to_bits());
                prop_assert_eq!(a.to_bits(), c.assignment_score(e, t).to_bits());
            }
        }
    }
}

/// An instance of 513–1 400 users over 2–7 competing events whose interest
/// values are not dyadic, so a competing-mass sum taken in another order
/// would show in the bits. About one value in five is zero.
fn churn_instance() -> impl Strategy<Value = Instance> {
    (PAR_BLOCK + 1..1_400usize, 1usize..=3, 2usize..=7, 0u8..2, 0u64..1_000_000).prop_map(
        |(nu, nt, nc, weighted, seed)| {
            let level = move |a: usize, b: usize| churn_value(seed, a, b);
            let mut b = InstanceBuilder::new();
            for l in 0..3 {
                b.add_event(Event::new(LocationId::new(l), 1.0));
            }
            b.add_intervals(nt);
            for c in 0..nc {
                b.add_competing(CompetingEvent::new(IntervalId::new(c % nt)));
            }
            let act = (0..nu * nt).map(|i| level(99, i)).collect();
            let mut b = b
                .event_interest(DenseInterest::from_fn(3, nu, level))
                .competing_interest(DenseInterest::from_fn(nc, nu, |c, u| level(3 + c, u)))
                .activity(ActivityMatrix::from_raw(nu, nt, act).unwrap())
                .resources(100.0);
            if weighted == 1 {
                b = b.user_weights((0..nu).map(|u| 0.5 + level(98, u)).collect());
            }
            b.build().unwrap()
        },
    )
}

/// A seeded value in `[0, 1)` with denominator 1 009, zero one time in five.
fn churn_value(seed: u64, a: usize, b: usize) -> f64 {
    let mut x = seed ^ (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (b as u64) << 20;
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    if x.is_multiple_of(5) {
        0.0
    } else {
        (x % 1_009) as f64 / 1_009.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A restored stream repairer rebuilds its competing-mass table and
    /// static caches from a cold engine, so the table `refresh_comp_mass`
    /// keeps up to date under user churn must equal a cold
    /// `ScoringEngine::with_threads` table bit for bit. Checked after every
    /// op of a random `AddUsers`/`RetireUsers` stream, on all three
    /// layouts, at 1 and 4 threads: the tables, and every score and score
    /// bound of an engine warm-started from the maintained table against
    /// the cold engine.
    #[test]
    fn refreshed_comp_mass_equals_a_cold_build(
        inst in churn_instance(),
        steps in (1usize..6).prop_flat_map(|n| {
            proptest::collection::vec((0u8..2, 1usize..300, 0u64..1_000_000), n)
        }),
    ) {
        use ses_core::delta::{self, DeltaOp, NewUser};
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        // One op list for every layout, built against the evolving user count.
        let mut users = inst.num_users();
        let mut ops = Vec::new();
        for (i, &(add, n, seed)) in steps.iter().enumerate() {
            if add == 1 {
                let new_user = |j: usize| NewUser {
                    event_interest: (0..3).map(|e| churn_value(seed, e, j)).collect(),
                    competing_interest: (0..inst.num_competing())
                        .map(|c| churn_value(seed, 3 + c, j))
                        .collect(),
                    activity: (0..inst.num_intervals()).map(|t| churn_value(seed, 99, t + j)).collect(),
                    weight: inst.is_weighted().then(|| 0.5 + churn_value(seed, 98, j)),
                };
                ops.push(DeltaOp::AddUsers { users: (0..n).map(new_user).collect() });
                users += n;
            } else {
                let gone: Vec<usize> =
                    (0..users - 1).filter(|&u| churn_value(seed, i, u) == 0.0).take(n).collect();
                if gone.is_empty() {
                    continue;
                }
                users -= gone.len();
                ops.push(DeltaOp::RetireUsers { users: gone });
            }
        }
        for kind in StorageKind::ALL {
            for threads in [Threads::sequential(), Threads::new(4)] {
                let mut live = with_storage(&inst, kind);
                let mut mass = ScoringEngine::with_threads(&live, threads).into_comp_mass();
                for (step, op) in ops.iter().enumerate() {
                    let effect = delta::apply(&mut live, op).expect("generated ops are valid");
                    delta::refresh_comp_mass(&mut mass, &live, &effect);
                    let mut cold = ScoringEngine::with_threads(&live, threads);
                    let mut warm = ScoringEngine::from_comp_mass(&live, mass.clone(), threads);
                    for (e, t) in live.assignment_universe() {
                        prop_assert_eq!(
                            warm.score_bound(e, t).to_bits(),
                            cold.score_bound(e, t).to_bits()
                        );
                        prop_assert_eq!(
                            warm.assignment_score(e, t).to_bits(),
                            cold.assignment_score(e, t).to_bits(),
                            "{} at {:?}, step {}: scores differ", kind, threads, step
                        );
                    }
                    prop_assert_eq!(
                        bits(&cold.into_comp_mass()), bits(&mass),
                        "{} at {:?}, step {}: tables differ", kind, threads, step
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Multi-block differential churn between the compressed and sparse
    /// layouts. Over 3–5 blocks of users the ops zero a cell of a full
    /// block, fill a nearly full block to 512, empty a block entry by
    /// entry, open an empty block, shift random cells and retire users.
    /// After every single op the decoded columns, `column_sum` bits and
    /// `assignment_score` bits agree and the compressed matrices pass
    /// `check_consistency`.
    #[test]
    fn compressed_point_edits_match_sparse_across_blocks(
        inst in blocky_instance(),
        seed in 0u64..1000,
    ) {
        use ses_core::delta::{self, DeltaOp};

        let mut sparse = with_storage(&inst, StorageKind::Sparse);
        let mut compressed = with_storage(&inst, StorageKind::Compressed);
        let mut x = seed | 1;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 16) as usize
        };
        let mut applied = 0usize;
        for round in 0..8 {
            let (nu, ne) = (sparse.num_users(), sparse.num_events());
            let counts = block_counts(&sparse);
            let cells: Vec<(usize, usize)> =
                (0..ne).flat_map(|e| (0..counts[e].len()).map(move |b| (e, b))).collect();
            let pick = |want: &dyn Fn(usize, usize) -> bool, r: usize| {
                let hits: Vec<&(usize, usize)> =
                    cells.iter().filter(|&&(e, b)| want(e, b)).collect();
                (!hits.is_empty()).then(|| *hits[r % hits.len()])
            };
            let shift = |e: usize, user: usize, interest: f64| DeltaOp::ShiftInterest {
                event: EventId::new(e),
                user,
                interest,
            };
            let stored = |e: usize, b: usize| -> Vec<usize> {
                let lo = b * PAR_BLOCK;
                (lo..(lo + PAR_BLOCK).min(nu))
                    .filter(|&u| sparse.event_interest.value(e, u) != 0.0)
                    .collect()
            };
            let q = |v: usize| (1 + v % 64) as f64 / 64.0;
            let r = next();
            let ops: Vec<DeltaOp> = match next() % 6 {
                // Zero one cell of a full block (full -> partial).
                0 => pick(&|e, b| counts[e][b] == PAR_BLOCK, r)
                    .map(|(e, b)| vec![shift(e, b * PAR_BLOCK + r % PAR_BLOCK, 0.0)])
                    .unwrap_or_default(),
                // Fill a nearly full block to 512 (partial -> full).
                1 => pick(&|e, b| (PAR_BLOCK - 16..PAR_BLOCK).contains(&counts[e][b])
                        && (b + 1) * PAR_BLOCK <= nu, r)
                    .map(|(e, b)| {
                        let have = stored(e, b);
                        (b * PAR_BLOCK..(b + 1) * PAR_BLOCK)
                            .filter(|u| !have.contains(u))
                            .map(|u| shift(e, u, q(u + r)))
                            .collect()
                    })
                    .unwrap_or_default(),
                // Empty the smallest non-empty block, down to its last entry.
                2 => {
                    let smallest = cells
                        .iter()
                        .filter(|&&(e, b)| counts[e][b] > 0)
                        .min_by_key(|&&(e, b)| (counts[e][b], e, b));
                    smallest
                        .map(|&(e, b)| stored(e, b).into_iter().map(|u| shift(e, u, 0.0)).collect())
                        .unwrap_or_default()
                }
                // Open an empty block with one entry.
                3 => pick(&|e, b| counts[e][b] == 0, r)
                    .map(|(e, b)| {
                        let user = (b * PAR_BLOCK + r % PAR_BLOCK).min(nu - 1);
                        vec![shift(e, user, q(r))]
                    })
                    .unwrap_or_default(),
                // Retire a few users (structural: the O(nnz) re-encode).
                4 => {
                    let mut users: Vec<usize> = (0..1 + r % 3).map(|i| next() % nu + i).collect();
                    users.sort_unstable();
                    users.dedup();
                    users.retain(|&u| u < nu);
                    vec![DeltaOp::RetireUsers { users }]
                }
                // Random drift, zeros included.
                _ => (0..4)
                    .map(|_| {
                        let v = next();
                        shift(next() % ne, next() % nu, if v % 4 == 0 { 0.0 } else { q(v) })
                    })
                    .collect(),
            };
            for op in &ops {
                delta::apply(&mut sparse, op).expect("op valid on sparse");
                delta::apply(&mut compressed, op).expect("op valid on compressed");
                applied += 1;
                for m in [&compressed.event_interest, &compressed.competing_interest] {
                    let InterestMatrix::Compressed(c) = m else {
                        panic!("compressed storage densified")
                    };
                    let check = c.check_consistency();
                    prop_assert!(check.is_ok(), "round {}, op {} ({:?}): {:?}", round, applied, op, check);
                }
                for e in 0..sparse.num_events() {
                    let bits = |m: &InterestMatrix| -> Vec<(usize, u64)> {
                        let mut col = Vec::new();
                        m.for_each(e, |u, v| col.push((u, v.to_bits())));
                        col
                    };
                    prop_assert_eq!(
                        bits(&compressed.event_interest), bits(&sparse.event_interest),
                        "round {}, op {}: column {} diverged", round, applied, e
                    );
                    prop_assert_eq!(
                        compressed.event_interest.column_sum(e).to_bits(),
                        sparse.event_interest.column_sum(e).to_bits(),
                        "round {}, op {}: column {} sum diverged", round, applied, e
                    );
                }
                let mut s = ScoringEngine::new(&sparse);
                let mut c = ScoringEngine::new(&compressed);
                for (e, t) in sparse.assignment_universe() {
                    prop_assert_eq!(
                        c.assignment_score(e, t).to_bits(),
                        s.assignment_score(e, t).to_bits(),
                        "round {}, op {}: score {:?}@{:?} diverged", round, applied, e, t
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The engine's mass tables agree bit for bit across layouts. Engines
    /// on dense, sparse and compressed storage, at 1 and 4 threads, run
    /// one random `apply`/`unapply` sequence over multi-block columns
    /// (full, partial, sparse and empty 512-user blocks) with competing
    /// columns. After every step `competing_mass`, `scheduled_mass` and
    /// `cached_share` are bit-equal across all six engines for every
    /// `(u, t)` — the competing-mass build and the `apply`/`unapply`
    /// walks, which score-only comparisons cover only indirectly.
    #[test]
    fn mass_tables_match_across_layouts(
        inst in blocky_instance(),
        steps in (1usize..12).prop_flat_map(|n| {
            proptest::collection::vec((0usize..64, 0usize..64, 0u8..2), n)
        }),
    ) {
        let layouts: Vec<Instance> =
            StorageKind::ALL.iter().map(|&kind| with_storage(&inst, kind)).collect();
        let mut engines: Vec<(String, ScoringEngine<'_>)> = Vec::new();
        for (kind, live) in StorageKind::ALL.iter().zip(&layouts) {
            for threads in [Threads::sequential(), Threads::new(4)] {
                engines.push((
                    format!("{kind} at {threads:?}"),
                    ScoringEngine::with_threads(live, threads),
                ));
            }
        }
        let tables = |eng: &ScoringEngine<'_>| -> Vec<[u64; 3]> {
            (0..inst.num_intervals())
                .flat_map(|t| (0..inst.num_users()).map(move |u| (u, IntervalId::new(t))))
                .map(|(u, t)| {
                    [
                        eng.competing_mass(u, t).to_bits(),
                        eng.scheduled_mass(u, t).to_bits(),
                        eng.cached_share(u, t).to_bits(),
                    ]
                })
                .collect()
        };
        let mut applied: Vec<(EventId, IntervalId)> = Vec::new();
        for (step, &(a, b, undo)) in steps.iter().enumerate() {
            let op = if undo == 1 && !applied.is_empty() {
                Err(applied.remove(a % applied.len()))
            } else {
                let pair = (
                    EventId::new(a % inst.num_events()),
                    IntervalId::new(b % inst.num_intervals()),
                );
                applied.push(pair);
                Ok(pair)
            };
            for (_, eng) in &mut engines {
                match op {
                    Ok((e, t)) => eng.apply(e, t),
                    Err((e, t)) => eng.unapply(e, t),
                }
            }
            let reference = tables(&engines[0].1);
            for (name, eng) in &engines[1..] {
                prop_assert!(
                    tables(eng) == reference,
                    "step {} ({:?}): {} mass tables differ from dense at 1 thread",
                    step, op, name
                );
            }
        }
    }
}

/// The row-wise definition of Eq. 1–3 that `scoring::utility` replaced
/// with its interval-major pass: per scheduled event, per spanned interval
/// and per user, the Luce denominator rebuilt from point lookups. Kept here
/// as the oracle the pass must match bit for bit.
mod row_wise {
    use ses_core::ids::{EventId, IntervalId};
    use ses_core::model::Instance;
    use ses_core::schedule::Schedule;

    fn denominator(inst: &Instance, s: &Schedule, user: usize, t: IntervalId) -> f64 {
        let mut d = 0.0;
        for c in inst.competing_at(t) {
            d += inst.competing_interest.value(c.index(), user);
        }
        for &p in s.events_at(t) {
            d += inst.event_interest.value(p.index(), user);
        }
        d
    }

    pub fn expected_attendance(inst: &Instance, s: &Schedule, e: EventId) -> f64 {
        let Some(start) = s.interval_of(e) else {
            return 0.0;
        };
        let d = inst.events[e.index()].duration as usize;
        let mut total = 0.0;
        for ti in start.index()..start.index() + d {
            let t = IntervalId::new(ti);
            for user in 0..inst.num_users() {
                let denom = denominator(inst, s, user, t);
                let rho = if denom <= 0.0 {
                    0.0
                } else {
                    inst.activity.value(user, ti) * inst.event_interest.value(e.index(), user)
                        / denom
                };
                total += inst.user_weight(user) * rho;
            }
        }
        total
    }

    pub fn total_utility(inst: &Instance, s: &Schedule) -> f64 {
        s.assignments().iter().map(|a| expected_attendance(inst, s, a.event)).sum()
    }

    pub fn total_profit(inst: &Instance, s: &Schedule, revenue: f64) -> f64 {
        s.assignments()
            .iter()
            .map(|a| {
                expected_attendance(inst, s, a.event) * revenue - inst.events[a.event.index()].cost
            })
            .sum()
    }
}

/// An instance of 2–4 user blocks (the last one possibly short) for the
/// Ω(S) oracle: non-dyadic interest and activity (so a sum taken in
/// another order shows in the bits), events of one or two intervals with
/// costs, optional user weights, and **silent** users (every seventh) with
/// zero interest in every event and competing event, whose Luce
/// denominator is zero at every interval.
fn omega_instance() -> impl Strategy<Value = Instance> {
    (2usize..=4, 0usize..PAR_BLOCK / 2, 3usize..=6, 2usize..=4, 0usize..=3, 0u8..2, 0u64..1_000_000)
        .prop_map(|(blocks, short, ne, nt, nc, weighted, seed)| {
            let nu = blocks * PAR_BLOCK - short;
            let level = move |a: usize, b: usize| churn_value(seed, a, b);
            let silent = |u: usize| u % 7 == 3;
            let mut b = InstanceBuilder::new();
            for e in 0..ne {
                let duration = 1 + (churn_value(seed, 200 + e, 0) < 0.4) as u32;
                let cost = level(300 + e, 0);
                b.add_event(
                    Event::new(LocationId::new(e % 3), 1.0).with_duration(duration).with_cost(cost),
                );
            }
            b.add_intervals(nt);
            for c in 0..nc {
                b.add_competing(CompetingEvent::new(IntervalId::new(c % nt)));
            }
            let interest = |offset: usize| {
                move |i: usize, u: usize| if silent(u) { 0.0 } else { level(offset + i, u) }
            };
            let act = (0..nu * nt).map(|i| level(99, i)).collect();
            let mut b = b
                .event_interest(DenseInterest::from_fn(ne, nu, interest(0)))
                .competing_interest(DenseInterest::from_fn(nc, nu, interest(100)))
                .activity(ActivityMatrix::from_raw(nu, nt, act).unwrap())
                .resources(100.0);
            if weighted == 1 {
                b = b.user_weights((0..nu).map(|u| 0.5 + level(98, u)).collect());
            }
            b.build().unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The interval-major Ω(S) pass is bit-equal to the row-wise
    /// definition. On dense, sparse and compressed storage, for the empty
    /// schedule and for ALG, HOR and RAND schedules (events of one and two
    /// intervals, weighted and unweighted users, silent users with a zero
    /// denominator at every occupied interval), `total_utility`,
    /// `total_profit` and `expected_attendance` of every event match the
    /// oracle's bits. The empty schedule's Ω is `-0.0`, the neutral element
    /// of `f64`'s `Sum` — the bits `tests/golden/serve_hostile.jsonl`
    /// pins for a `k = 0` request.
    #[test]
    fn total_utility_matches_row_wise_oracle(
        inst in omega_instance(),
        k in 1usize..=6,
        seed in 0u64..1_000,
        revenue in 0.5f64..2.0,
    ) {
        for kind in StorageKind::ALL {
            let live = with_storage(&inst, kind);
            let mut schedules = vec![("empty", Schedule::new(&live))];
            for scheduler in [SchedulerKind::Alg, SchedulerKind::Hor, SchedulerKind::Rand(seed)] {
                schedules.push((scheduler.name(), scheduler.run(&live, k).schedule));
            }
            for (name, s) in &schedules {
                let omega = total_utility(&live, s);
                prop_assert_eq!(
                    omega.to_bits(),
                    row_wise::total_utility(&live, s).to_bits(),
                    "{} on {}: Ω {} differs from the row-wise oracle", name, kind, omega
                );
                prop_assert_eq!(
                    total_profit(&live, s, revenue).to_bits(),
                    row_wise::total_profit(&live, s, revenue).to_bits(),
                    "{} on {}: profit differs from the row-wise oracle", name, kind
                );
                for e in 0..live.num_events() {
                    let e = EventId::new(e);
                    prop_assert_eq!(
                        expected_attendance(&live, s, e).to_bits(),
                        row_wise::expected_attendance(&live, s, e).to_bits(),
                        "{} on {}: ω of {:?} differs from the row-wise oracle", name, kind, e
                    );
                }
            }
            prop_assert_eq!(total_utility(&live, &schedules[0].1).to_bits(), (-0.0f64).to_bits());
        }
    }
}

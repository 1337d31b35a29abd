//! The synthetic instance generator over the Table-1 parameter space
//! (the paper's `Unf`, `Nrm`, and `Zip` datasets).
//!
//! Generation streams one interest column (event) at a time into the chosen
//! storage backend, so a 1M-user instance in the compressed layout never
//! materializes the `|E| × |U|` dense matrix. The RNG draw order is the
//! item-outer/user-inner order the original dense generator used, so
//! `generate` (dense storage, no quantization) is byte-identical to every
//! previously committed instance.

use crate::distributions::{ClampedNormal, Sampler, UniformRange};
use crate::params::{quantize, ActivityModel, InterestModel, SyntheticParams};
use crate::scaffold::{random_competing, random_events};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ses_core::model::{ActivityMatrix, Instance, InstanceBuilder, InterestMatrix, StorageKind};

/// Generates a synthetic [`Instance`] from the given parameters, with the
/// interest matrices in the dense layout. Deterministic: equal parameters
/// (including seed) yield equal instances.
///
/// # Panics
/// Panics on degenerate parameters (zero events/intervals/users), matching
/// the instance validator's requirements.
pub fn generate(params: &SyntheticParams) -> Instance {
    generate_with_storage(params, StorageKind::Dense)
}

/// Generates a synthetic [`Instance`] with the interest matrices in the
/// requested storage layout. The RNG stream and every drawn value are
/// independent of the layout, so for any fixed parameters the three backends
/// hold bitwise-identical logical matrices (`generate_with_storage(p, k)` ==
/// `generate(p).convert_to(k)` cell for cell) — but the non-dense layouts are
/// built by streaming columns, never allocating the dense intermediate.
///
/// Pair the compressed layout with a non-zero `params.interest_levels`:
/// quantization caps the value alphabet so the dictionary stays `u16`-sized.
///
/// # Panics
/// Panics on degenerate parameters (zero events/intervals/users), matching
/// the instance validator's requirements.
pub fn generate_with_storage(params: &SyntheticParams, storage: StorageKind) -> Instance {
    let mut rng = StdRng::seed_from_u64(params.seed);

    let mut builder = InstanceBuilder::new();
    for e in random_events(
        &mut rng,
        params.num_events,
        params.num_locations,
        params.max_required_resources,
    ) {
        builder.add_event(e);
    }
    builder.add_intervals(params.num_intervals);
    let competing = random_competing(&mut rng, params.num_intervals, params.competing_per_interval);
    let num_competing = competing.len();
    for c in competing {
        builder.add_competing(c);
    }

    let event_interest = interest_matrix(
        &mut rng,
        params.interest,
        params.interest_levels,
        params.num_events,
        params.num_users,
        storage,
    );
    let competing_interest = interest_matrix(
        &mut rng,
        params.interest,
        params.interest_levels,
        num_competing,
        params.num_users,
        storage,
    );
    let activity =
        activity_matrix(&mut rng, params.activity, params.num_users, params.num_intervals);

    builder
        .event_interest(event_interest)
        .competing_interest(competing_interest)
        .activity(activity)
        .resources(params.resources)
        .build()
        .expect("synthetic parameters must produce a valid instance")
}

/// Draws an `items × users` interest matrix under the chosen model, streamed
/// column-by-column into the chosen layout. One scratch column (`|U|` f64s)
/// is the only dense allocation regardless of backend.
fn interest_matrix(
    rng: &mut StdRng,
    model: InterestModel,
    levels: usize,
    num_items: usize,
    num_users: usize,
    storage: StorageKind,
) -> InterestMatrix {
    let mut m = InterestMatrix::empty(storage, num_users);
    let mut col = vec![0.0f64; num_users];
    match model {
        InterestModel::Uniform => {
            let d = UniformRange::unit();
            for _ in 0..num_items {
                for v in col.iter_mut() {
                    *v = quantize(d.sample(rng), levels);
                }
                m.push_item(&col);
            }
        }
        InterestModel::Normal => {
            let d = ClampedNormal::probability();
            for _ in 0..num_items {
                for v in col.iter_mut() {
                    *v = quantize(d.sample(rng), levels);
                }
                m.push_item(&col);
            }
        }
        InterestModel::Zipf { s } => {
            // Event-level Zipf popularity: a random permutation of ranks,
            // normalized so the most popular event has weight 1.
            let mut ranks: Vec<usize> = (1..=num_items.max(1)).collect();
            ranks.shuffle(rng);
            let pops: Vec<f64> = ranks.iter().map(|&r| (r as f64).powf(-s)).collect();
            let d = UniformRange::unit();
            for &pop in pops.iter().take(num_items) {
                for v in col.iter_mut() {
                    *v = quantize(pop * d.sample(rng), levels);
                }
                m.push_item(&col);
            }
        }
    }
    m
}

fn activity_matrix(
    rng: &mut StdRng,
    model: ActivityModel,
    num_users: usize,
    num_intervals: usize,
) -> ActivityMatrix {
    match model {
        ActivityModel::Uniform => {
            ActivityMatrix::from_fn(num_users, num_intervals, |_, _| rng.gen_range(0.0..1.0))
        }
        ActivityModel::Normal => {
            let d = ClampedNormal::probability();
            ActivityMatrix::from_fn(num_users, num_intervals, |_, _| d.sample(rng))
        }
    }
}

/// Convenience: the three headline synthetic datasets of the evaluation at a
/// chosen user scale — `Unf`, `Nrm`, and `Zip` (s = 2).
pub fn paper_trio(num_users: usize, seed: u64) -> [(String, Instance); 3] {
    let base = SyntheticParams::default().with_users(num_users).with_seed(seed);
    [
        ("Unf".to_string(), generate(&base.with_interest(InterestModel::Uniform))),
        ("Nrm".to_string(), generate(&base.with_interest(InterestModel::Normal))),
        ("Zip".to_string(), generate(&base.with_interest(InterestModel::Zipf { s: 2.0 }))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(interest: InterestModel) -> SyntheticParams {
        SyntheticParams {
            k: 5,
            num_events: 20,
            num_intervals: 8,
            num_users: 50,
            competing_per_interval: (1, 4),
            num_locations: 5,
            resources: 10.0,
            max_required_resources: 5.0,
            interest,
            activity: ActivityModel::Uniform,
            seed: 7,
            interest_levels: 0,
        }
    }

    #[test]
    fn generates_valid_instances_for_all_models() {
        for model in [InterestModel::Uniform, InterestModel::Normal, InterestModel::Zipf { s: 2.0 }]
        {
            let inst = generate(&tiny(model));
            assert!(inst.validate().is_ok(), "{model:?}");
            assert_eq!(inst.num_events(), 20);
            assert_eq!(inst.num_intervals(), 8);
            assert_eq!(inst.num_users(), 50);
            assert!(inst.num_competing() >= 8); // ≥ 1 per interval
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&tiny(InterestModel::Uniform));
        let b = generate(&tiny(InterestModel::Uniform));
        assert_eq!(a, b);
        let c = generate(&tiny(InterestModel::Uniform).with_seed(8));
        assert_ne!(a, c);
    }

    #[test]
    fn storage_layouts_draw_identical_instances() {
        for model in [InterestModel::Uniform, InterestModel::Normal, InterestModel::Zipf { s: 2.0 }]
        {
            let params = tiny(model).with_interest_levels(64);
            let dense = generate_with_storage(&params, StorageKind::Dense);
            for kind in [StorageKind::Sparse, StorageKind::Compressed] {
                let streamed = generate_with_storage(&params, kind);
                assert_eq!(streamed.event_interest.storage_kind(), kind);
                assert_eq!(streamed.competing_interest.storage_kind(), kind);
                // Same RNG stream, so converting the dense run must reproduce
                // the streamed run exactly (bitwise, via PartialEq on f64).
                let mut converted = dense.clone();
                converted.event_interest = dense.event_interest.convert_to(kind);
                converted.competing_interest = dense.competing_interest.convert_to(kind);
                assert_eq!(streamed, converted, "{model:?} {kind}");
            }
        }
    }

    #[test]
    fn quantization_caps_the_alphabet_and_preserves_support() {
        let params = tiny(InterestModel::Zipf { s: 2.0 }).with_interest_levels(16);
        let plain = generate(&tiny(InterestModel::Zipf { s: 2.0 }));
        let quantized = generate(&params);
        let m = &quantized.event_interest;
        let mut distinct = std::collections::BTreeSet::new();
        for item in 0..m.num_items() {
            m.for_each(item, |u, v| {
                assert!(v > 0.0 && v <= 1.0);
                // Snapped up onto the grid: v = n/16 and v ≥ the raw draw.
                assert_eq!(v, (v * 16.0).round() / 16.0, "off-grid value {v}");
                assert!(v >= plain.event_interest.value(item, u));
                distinct.insert(v.to_bits());
            });
            assert_eq!(m.column_len(item), plain.event_interest.column_len(item));
        }
        assert!(distinct.len() <= 16);
        assert!(quantized.validate().is_ok());
    }

    #[test]
    fn zero_levels_is_the_identity() {
        assert_eq!(quantize(0.37, 0), 0.37);
        assert_eq!(quantize(0.0, 16), 0.0);
        assert_eq!(quantize(1.0, 16), 1.0);
        assert_eq!(quantize(0.001, 4), 0.25);
    }

    #[test]
    fn zipf_interest_has_event_level_skew() {
        let inst = generate(&tiny(InterestModel::Zipf { s: 2.0 }));
        let sums: Vec<f64> =
            (0..inst.num_events()).map(|e| inst.event_interest.column_sum(e)).collect();
        let max = sums.iter().cloned().fold(f64::MIN, f64::max);
        let min = sums.iter().cloned().fold(f64::MAX, f64::min);
        // The most popular event should dwarf the least popular one.
        assert!(max > 20.0 * min.max(1e-9), "max {max}, min {min}");
    }

    #[test]
    fn uniform_interest_is_homogeneous() {
        let inst = generate(&tiny(InterestModel::Uniform));
        let sums: Vec<f64> =
            (0..inst.num_events()).map(|e| inst.event_interest.column_sum(e)).collect();
        let mean = sums.iter().sum::<f64>() / sums.len() as f64;
        for s in sums {
            assert!((s - mean).abs() / mean < 0.5, "uniform events should look alike");
        }
    }

    #[test]
    fn paper_trio_labels() {
        let trio = paper_trio(20, 1);
        let names: Vec<&str> = trio.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Unf", "Nrm", "Zip"]);
        for (_, inst) in &trio {
            assert!(inst.validate().is_ok());
        }
    }
}

//! Simulated **Concerts** dataset (Yahoo! Music).
//!
//! The paper's largest dataset derives from Yahoo!'s "Music user ratings of
//! musical tracks, albums, artists and genres": albums act as candidate
//! concerts, and interest is computed from the user's *genre* ratings —
//! §4.1's exact formula:
//!
//! > `interest(u, album a) = (Σ_{g ∈ G_a} r_g) / |G_a|`, where `r_g = 1` if
//! > genre `g` is not rated by `u`.
//!
//! The "unrated ⇒ 1.0" default makes Concerts interest **dense and
//! high-valued** — the distinguishing property of this dataset in Figs 5–7
//! (largest utilities, every event broadly attractive). This module
//! reproduces the derivation pipeline on synthetic ratings:
//!
//! * genres have Zipf popularity (both for album tagging and user rating);
//! * each album links to `1..=3` genres;
//! * each user rates at least `min_rated` genres (the paper filters users
//!   with ≥ 10 rated genres), ratings `U[0, 1)`.

use crate::distributions::Zipf;
use crate::params::quantize;
use crate::scaffold::{random_competing, random_events};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use ses_core::model::{ActivityMatrix, Instance, InstanceBuilder, InterestMatrix, StorageKind};

/// Parameters of the Concerts-like generator. Defaults are scaled down from
/// the real 379K-user corpus for laptop runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConcertsParams {
    /// Number of users (paper: 379,391).
    pub num_users: usize,
    /// Number of candidate albums/concerts (paper: 89K albums, 500 used
    /// as candidates per the |E| default).
    pub num_events: usize,
    /// Number of candidate intervals.
    pub num_intervals: usize,
    /// Genre vocabulary size.
    pub num_genres: usize,
    /// Genres per album (inclusive range; paper's albums have ≥ 1).
    pub genres_per_album: (usize, usize),
    /// Minimum genres rated per user (paper filters at 10).
    pub min_rated_genres: usize,
    /// Maximum genres rated per user.
    pub max_rated_genres: usize,
    /// Zipf exponent of genre popularity.
    pub genre_skew: f64,
    /// Competing events per interval (inclusive uniform range).
    pub competing_per_interval: (u64, u64),
    /// Number of locations (stages).
    pub num_locations: usize,
    /// Organizer resources θ.
    pub resources: f64,
    /// Max required resources (ξ ~ U[1, max]).
    pub max_required_resources: f64,
    /// RNG seed.
    pub seed: u64,
    /// Interest quantization levels (0 = continuous; see
    /// [`crate::params::quantize`]). Concerts interest is dense, so this is
    /// what makes the compressed backend's dictionary small.
    #[serde(default)]
    pub interest_levels: usize,
}

impl Default for ConcertsParams {
    fn default() -> Self {
        Self {
            num_users: 4_000,
            num_events: 500,
            num_intervals: 150,
            num_genres: 30,
            genres_per_album: (1, 3),
            min_rated_genres: 10,
            max_rated_genres: 25,
            genre_skew: 1.0,
            competing_per_interval: (1, 16),
            num_locations: 25,
            resources: 30.0,
            max_required_resources: 15.0,
            seed: 0x59414845, // "YAHE"
            interest_levels: 0,
        }
    }
}

impl ConcertsParams {
    /// Overrides the user count.
    #[must_use]
    pub fn with_users(mut self, n: usize) -> Self {
        self.num_users = n;
        self
    }

    /// Overrides the event count.
    #[must_use]
    pub fn with_events(mut self, n: usize) -> Self {
        self.num_events = n;
        self
    }

    /// Overrides the interval count.
    #[must_use]
    pub fn with_intervals(mut self, n: usize) -> Self {
        self.num_intervals = n;
        self
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the interest quantization level count (0 = continuous).
    #[must_use]
    pub fn with_interest_levels(mut self, interest_levels: usize) -> Self {
        self.interest_levels = interest_levels;
        self
    }
}

/// One user's genre ratings: `None` = unrated (defaults to 1.0 in the
/// interest formula).
type Ratings = Vec<Option<f64>>;

fn draw_album_genres(rng: &mut StdRng, zipf: &Zipf, range: (usize, usize)) -> Vec<usize> {
    let want = rng.gen_range(range.0..=range.1).min(zipf.n).max(1);
    let mut set = Vec::with_capacity(want);
    let mut guard = 0;
    while set.len() < want && guard < 100 * want {
        let g = zipf.sample_rank(rng) - 1;
        if !set.contains(&g) {
            set.push(g);
        }
        guard += 1;
    }
    set
}

fn draw_user_ratings(
    rng: &mut StdRng,
    zipf: &Zipf,
    num_genres: usize,
    min_rated: usize,
    max_rated: usize,
) -> Ratings {
    let mut ratings: Ratings = vec![None; num_genres];
    let want = rng.gen_range(min_rated..=max_rated.min(num_genres));
    let mut rated = 0;
    let mut guard = 0;
    while rated < want && guard < 1000 * want {
        let g = zipf.sample_rank(rng) - 1;
        if ratings[g].is_none() {
            ratings[g] = Some(rng.gen_range(0.0..1.0));
            rated += 1;
        }
        guard += 1;
    }
    ratings
}

/// The paper's interest formula: mean of the album's genre ratings, with
/// unrated genres counting as 1.0.
fn album_interest(ratings: &Ratings, genres: &[usize]) -> f64 {
    if genres.is_empty() {
        return 0.0;
    }
    let sum: f64 = genres.iter().map(|&g| ratings[g].unwrap_or(1.0)).sum();
    sum / genres.len() as f64
}

/// Generates a Concerts-like [`Instance`] with dense interest storage.
/// Deterministic per parameters.
pub fn generate(params: &ConcertsParams) -> Instance {
    generate_with_storage(params, StorageKind::Dense)
}

/// Generates a Concerts-like [`Instance`] with the interest matrices in the
/// requested layout. The genre-derived interest formula draws no randomness
/// of its own (all RNG happens while drawing genre sets and ratings), so the
/// matrices are streamed column-by-column into the target layout — no dense
/// intermediate — and the drawn values are layout-invariant.
pub fn generate_with_storage(params: &ConcertsParams, storage: StorageKind) -> Instance {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let zipf = Zipf::new(params.num_genres, params.genre_skew);

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

    let album_genres: Vec<Vec<usize>> = (0..params.num_events)
        .map(|_| draw_album_genres(&mut rng, &zipf, params.genres_per_album))
        .collect();
    let competing_genres: Vec<Vec<usize>> = (0..num_competing)
        .map(|_| draw_album_genres(&mut rng, &zipf, params.genres_per_album))
        .collect();
    let user_ratings: Vec<Ratings> = (0..params.num_users)
        .map(|_| {
            draw_user_ratings(
                &mut rng,
                &zipf,
                params.num_genres,
                params.min_rated_genres,
                params.max_rated_genres,
            )
        })
        .collect();

    let levels = params.interest_levels;
    let stream_interest = |genres: &[Vec<usize>]| {
        let mut m = InterestMatrix::empty(storage, params.num_users);
        let mut col = vec![0.0f64; params.num_users];
        for gs in genres {
            for (u, v) in col.iter_mut().enumerate() {
                *v = quantize(album_interest(&user_ratings[u], gs), levels);
            }
            m.push_item(&col);
        }
        m
    };
    let event_interest = stream_interest(&album_genres);
    let competing_interest = stream_interest(&competing_genres);
    let activity = ActivityMatrix::from_fn(params.num_users, params.num_intervals, |_, _| {
        rng.gen_range(0.0..1.0)
    });

    builder
        .event_interest(event_interest)
        .competing_interest(competing_interest)
        .activity(activity)
        .resources(params.resources)
        .build()
        .expect("concerts parameters must produce a valid instance")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ConcertsParams {
        ConcertsParams {
            num_users: 100,
            num_events: 40,
            num_intervals: 10,
            ..ConcertsParams::default()
        }
    }

    #[test]
    fn generates_valid_instance() {
        let inst = generate(&tiny());
        assert!(inst.validate().is_ok());
        assert_eq!(inst.num_events(), 40);
        assert_eq!(inst.num_users(), 100);
    }

    #[test]
    fn interest_is_dense_and_high() {
        let inst = generate(&tiny());
        let mut total = 0.0;
        let mut n = 0usize;
        for e in 0..inst.num_events() {
            inst.event_interest.for_each(e, |_, v| {
                total += v;
                n += 1;
            });
        }
        let mean = total / n as f64;
        // Unrated-defaults-to-1.0 pushes mean interest well above 0.5
        // (uniform ratings average 0.5; unrated genres contribute 1.0).
        assert!(mean > 0.55, "mean interest {mean}");
        assert_eq!(n, inst.num_events() * inst.num_users());
    }

    #[test]
    fn album_interest_formula() {
        // Genres 0 rated 0.4, genre 1 unrated (counts as 1.0).
        let ratings: Ratings = vec![Some(0.4), None];
        assert!((album_interest(&ratings, &[0, 1]) - 0.7).abs() < 1e-12);
        assert!((album_interest(&ratings, &[0]) - 0.4).abs() < 1e-12);
        assert_eq!(album_interest(&ratings, &[1]), 1.0);
        assert_eq!(album_interest(&ratings, &[]), 0.0);
    }

    #[test]
    fn every_user_rates_at_least_min() {
        let params = tiny();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let zipf = Zipf::new(params.num_genres, params.genre_skew);
        for _ in 0..50 {
            let r = draw_user_ratings(&mut rng, &zipf, params.num_genres, 10, 15);
            let rated = r.iter().filter(|x| x.is_some()).count();
            assert!(rated >= 10);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(&tiny()), generate(&tiny()));
        assert_ne!(generate(&tiny()), generate(&tiny().with_seed(123)));
    }
}

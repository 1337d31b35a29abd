//! The scoring engine: assignment scores (Eq. 4) over incrementally
//! maintained per-`(user, interval)` interest masses.
//!
//! For a user `u` and interval `t`, let
//!
//! * `C(u,t) = Σ_{c ∈ C_t} µ(u,c)` — competing mass (fixed), and
//! * `M(u,t) = Σ_{p ∈ E_t(S)} µ(u,p)` — scheduled mass (grows as the
//!   schedule fills).
//!
//! By Eq. 1–2 the expected attendance of interval `t`'s events from user `u`
//! is `σ(u,t) · M / (C + M)` (each scheduled event receives its
//! `µ`-proportional share, and the shares sum to `M / (C + M)`). The
//! assignment score of adding event `r` with interest `µ_r` (Eq. 4) is then
//!
//! ```text
//! score(r, t) = Σ_u w(u) · σ(u,t) · [ (M + µ_r)/(C + M + µ_r) − M/(C + M) ]
//! ```
//!
//! evaluated in O(column length of `r`) given the two mass tables. This is
//! exactly the per-score `|U|` cost the paper's complexity analysis charges
//! (dense interest iterates all users; sparse iterates non-zeros — users with
//! `µ_r = 0` contribute nothing to the bracket).
//!
//! **Monotonicity (Proposition 1's engine-level fact).** For fixed `µ_r > 0`
//! the bracket is strictly decreasing in `M` (and constant when `µ_r = 0`),
//! so scores only shrink as events are applied to an interval. Stale scores
//! are therefore upper bounds — the invariant INC and HOR-I prune with. This
//! is asserted by property tests in this module.
//!
//! ## Kernel memory layout (DESIGN.md §9)
//!
//! The user sweep is the system's hot loop, so its per-user state is
//! maintained as four interval-major tables updated only on `apply`/
//! `unapply` (which are ~`k` rare events per run, vs millions of sweeps):
//!
//! * `num_base[t·|U|+u]` — the residue-clamped scheduled mass `m̂`,
//! * `tot_mass[t·|U|+u]` — the Luce denominator `C + m̂`,
//! * `share[t·|U|+u]`    — the cached old share `m̂ / (C + m̂)`,
//! * `weight_act[t·|U|+u]` — the fused factor `w(u)·σ(u,t)` (built once).
//!
//! A sweep then performs **one division and one multiply per user**
//! (`wact · ((m̂+µ)/(tot+µ) − share)`) over four contiguous streams, instead
//! of two divisions, a residue branch, a strided `σ` lookup (the activity
//! matrix is user-major), and a `w·σ` recompute. Every cached value is the
//! bitwise result of the exact expression the pre-fusion kernel evaluated
//! inline, so scores are bit-identical to the unfused engine — the
//! differential suites and golden traces enforce this.

use crate::ids::{EventId, IntervalId};
use crate::model::Instance;
use crate::parallel::{block_count, block_range, par_chunks_mut, Threads};
use crate::stats::Stats;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Incremental scorer for one instance. Create one per algorithm run.
#[derive(Debug, Clone)]
pub struct ScoringEngine<'a> {
    inst: &'a Instance,
    /// Competing mass `C(u,t)`, laid out `[t · |U| + u]` (interval-major so a
    /// score's user sweep is contiguous).
    comp_mass: Vec<f64>,
    /// Scheduled mass `M(u,t)`, same layout. The *raw* accumulator — the
    /// hot path never reads it; it exists so mass evolution under
    /// apply/unapply stays bit-exact while the clamped caches below feed
    /// the sweeps.
    sched_mass: Vec<f64>,
    /// Residue-clamped scheduled mass `m̂ = (M < MASS_SNAP ? 0 : M)`.
    num_base: Vec<f64>,
    /// Cached Luce denominator `C + m̂`.
    tot_mass: Vec<f64>,
    /// Cached old share `m̂ / (C + m̂)` (`0` when the denominator is zero).
    share: Vec<f64>,
    /// Fused per-`(u,t)` weight `w(u)·σ(u,t)` — precomputed at build so the
    /// sweep neither recomputes the product nor strides through the
    /// user-major activity matrix.
    weight_act: Vec<f64>,
    /// Per interval: `min_u C(u,t)` — a static lower bound on every user's
    /// Luce denominator, feeding [`score_bound`](Self::score_bound).
    comp_min: Vec<f64>,
    /// Per interval: `max_u w(u)·σ(u,t)`, same purpose.
    weight_act_max: Vec<f64>,
    /// Per interval: number of applied event-span occupancies. When a count
    /// returns to zero the interval's scheduled state is hard-reset to
    /// exact zeros, eliminating subtraction residue wholesale.
    sched_events: Vec<u32>,
    /// Per interval: number of users with non-zero raw scheduled mass —
    /// lets the empty-interval hard reset skip its row scan when every
    /// cell already subtracted back to exact zero (the common case).
    dirty_cells: Vec<u32>,
    /// Worker threads for user sweeps. Results are bit-identical for every
    /// count (fixed-block reduction; see the `parallel` module).
    threads: Threads,
    stats: Stats,
    /// Engine-construction wall time, folded into a profile if enabled.
    setup_ns: u64,
    /// Per-phase wall-clock attribution; `None` (the default) keeps the hot
    /// path free of timing calls.
    profile: Option<EngineProfile>,
}

/// The engine's instance-static kernel caches (fused `w·σ` weight table and
/// per-interval bound invariants), extractable via
/// [`ScoringEngine::into_warm_parts`] and re-entered via
/// [`ScoringEngine::from_warm_parts`] so repeated warm rebuilds (the stream
/// repairer's per-op engines) skip their `O(|U|·|T|)` construction. Opaque:
/// validity is the caller's contract (no user churn, no weight/activity/
/// competing-interest change since extraction).
#[derive(Debug, Clone)]
pub struct StaticCaches {
    weight_act: Vec<f64>,
    comp_min: Vec<f64>,
    weight_act_max: Vec<f64>,
}

/// Wall-clock attribution of an engine's life, split by phase — the payload
/// of `ses run --profile`. All values in nanoseconds of the engine's own
/// sequential work (parallel candidate-generation time is folded in by the
/// schedulers via [`ScoringEngine::add_scoring_time`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineProfile {
    /// Engine construction: competing-mass aggregation + cache builds.
    pub setup_ns: u64,
    /// Time inside score evaluations (initial scores and updates).
    pub score_ns: u64,
    /// Time inside `apply`/`unapply` mass maintenance.
    pub apply_ns: u64,
    /// Number of timed score evaluations.
    pub scores: u64,
    /// Number of timed apply/unapply calls.
    pub applies: u64,
}

impl<'a> ScoringEngine<'a> {
    /// Builds a sequential engine — the reference behaviour all parallel
    /// configurations are differentially tested against.
    pub fn new(inst: &'a Instance) -> Self {
        Self::with_threads(inst, Threads::sequential())
    }

    /// Builds the engine with `threads` workers for its user sweeps, and
    /// pre-aggregates the competing masses — the `O(|U|·|C|)` setup term of
    /// the paper's complexity analyses, fanned out by interval row — plus
    /// the fused kernel caches (weight table, Luce denominators, bound-gate
    /// invariants).
    pub fn with_threads(inst: &'a Instance, threads: Threads) -> Self {
        let start = Instant::now();
        let users = inst.num_users();
        let intervals = inst.num_intervals();
        let mut comp_mass = vec![0.0; users * intervals];
        if users > 0 {
            // Group competing events by interval (ascending id within each):
            // each `comp_mass` row then aggregates independently, and every
            // cell receives its additions in exactly the order the flat
            // sequential loop over `inst.competing` used — rows are
            // parallelism-safe *and* bit-identical.
            let mut by_interval: Vec<Vec<usize>> = vec![Vec::new(); intervals];
            for (ci, c) in inst.competing.iter().enumerate() {
                by_interval[c.interval.index()].push(ci);
            }
            par_chunks_mut(threads, &mut comp_mass, users, |t, row| {
                for &ci in &by_interval[t] {
                    inst.competing_interest.for_each(ci, |u, mu| row[u] += mu);
                }
            });
        }
        let setup_ops: u64 =
            (0..inst.competing.len()).map(|ci| inst.competing_interest.column_len(ci) as u64).sum();
        let mut stats = Stats::new();
        stats.user_ops += setup_ops;
        let mut engine = Self::assemble(inst, comp_mass, threads, stats);
        engine.setup_ns = start.elapsed().as_nanos() as u64;
        engine
    }

    /// Rebuilds an engine around a previously extracted competing-mass
    /// table (see [`into_comp_mass`](Self::into_comp_mass)), skipping the
    /// `O(|U|·|C|)` setup — the warm-start path of the dynamic stream
    /// scheduler, whose delta layer keeps the table bit-identical to a cold
    /// rebuild (`ses_core::delta::refresh_comp_mass`). Counters start at
    /// zero: a warm engine genuinely does not pay the setup term (it still
    /// rebuilds the `O(|U|·|T|)` kernel caches, which is `|C|/|T|`-fold
    /// cheaper).
    ///
    /// # Panics
    /// Panics if `comp_mass.len() != |U| · |T|` for `inst`.
    pub fn from_comp_mass(inst: &'a Instance, comp_mass: Vec<f64>, threads: Threads) -> Self {
        let start = Instant::now();
        let cells = inst.num_users() * inst.num_intervals();
        assert_eq!(comp_mass.len(), cells, "competing-mass table shape mismatch");
        let mut engine = Self::assemble(inst, comp_mass, threads, Stats::new());
        engine.setup_ns = start.elapsed().as_nanos() as u64;
        engine
    }

    /// Derives every kernel cache from a finished competing-mass table: the
    /// empty-schedule scheduled state (`m̂ = 0`, `tot = C + 0`, `share = 0`),
    /// the fused `w(u)·σ(u,t)` weight table, and the per-interval bound-gate
    /// invariants. All fills are elementwise or per-row sequential scans, so
    /// every thread count produces identical bits.
    fn assemble(inst: &'a Instance, comp_mass: Vec<f64>, threads: Threads, stats: Stats) -> Self {
        let caches = Self::build_static_caches(inst, &comp_mass, threads);
        Self::assemble_with(inst, comp_mass, caches, threads, stats)
    }

    /// Builds the instance-static caches: the fused weight table and the
    /// per-interval bound invariants.
    fn build_static_caches(inst: &Instance, comp_mass: &[f64], threads: Threads) -> StaticCaches {
        let users = inst.num_users();
        let intervals = inst.num_intervals();
        let cells = users * intervals;

        let mut weight_act = vec![0.0; cells];
        par_chunks_mut(threads, &mut weight_act, users.max(1), |t, row| {
            for (u, cell) in row.iter_mut().enumerate() {
                *cell = inst.user_weight(u) * inst.activity.value(u, t);
            }
        });

        let mut comp_min = vec![0.0; intervals];
        let mut weight_act_max = vec![0.0; intervals];
        for t in 0..intervals {
            let row = t * users;
            let mut cmin = f64::INFINITY;
            let mut wmax = 0.0f64;
            for u in 0..users {
                cmin = cmin.min(comp_mass[row + u]);
                wmax = wmax.max(weight_act[row + u]);
            }
            comp_min[t] = if users > 0 { cmin } else { 0.0 };
            weight_act_max[t] = wmax;
        }
        StaticCaches { weight_act, comp_min, weight_act_max }
    }

    /// Final assembly around a competing-mass table and (possibly reused)
    /// static caches: builds only the per-run scheduled state.
    fn assemble_with(
        inst: &'a Instance,
        comp_mass: Vec<f64>,
        caches: StaticCaches,
        threads: Threads,
        stats: Stats,
    ) -> Self {
        let users = inst.num_users();
        let intervals = inst.num_intervals();
        let cells = users * intervals;

        let mut tot_mass = vec![0.0; cells];
        par_chunks_mut(threads, &mut tot_mass, users.max(1), |t, row| {
            let comp = &comp_mass[t * users..(t + 1) * users];
            for (cell, &c) in row.iter_mut().zip(comp) {
                *cell = c + 0.0;
            }
        });

        Self {
            inst,
            comp_mass,
            sched_mass: vec![0.0; cells],
            num_base: vec![0.0; cells],
            tot_mass,
            share: vec![0.0; cells],
            weight_act: caches.weight_act,
            comp_min: caches.comp_min,
            weight_act_max: caches.weight_act_max,
            sched_events: vec![0; intervals],
            dirty_cells: vec![0; intervals],
            threads,
            stats,
            setup_ns: 0,
            profile: None,
        }
    }

    /// Consumes the engine, returning its competing-mass table for reuse by
    /// a later [`from_comp_mass`](Self::from_comp_mass) warm start.
    pub fn into_comp_mass(self) -> Vec<f64> {
        self.comp_mass
    }

    /// Consumes the engine, returning the competing-mass table *and* the
    /// instance-static kernel caches for reuse by
    /// [`from_warm_parts`](Self::from_warm_parts) — the fully warm start of
    /// the stream repairer. The caches depend only on the user weights, the
    /// activity matrix, and the competing masses, so they stay valid across
    /// any delta that does not churn users.
    pub fn into_warm_parts(self) -> (Vec<f64>, StaticCaches) {
        (
            self.comp_mass,
            StaticCaches {
                weight_act: self.weight_act,
                comp_min: self.comp_min,
                weight_act_max: self.weight_act_max,
            },
        )
    }

    /// [`from_comp_mass`](Self::from_comp_mass) that additionally reuses
    /// previously extracted static caches, skipping their `O(|U|·|T|)`
    /// rebuild. The caller owns the invalidation rule: the caches are only
    /// valid if no user joined/retired and no weight, activity, or
    /// competing-interest value changed since they were extracted.
    ///
    /// # Panics
    /// Panics on any shape mismatch against `inst`.
    pub fn from_warm_parts(
        inst: &'a Instance,
        comp_mass: Vec<f64>,
        caches: StaticCaches,
        threads: Threads,
    ) -> Self {
        let start = Instant::now();
        let cells = inst.num_users() * inst.num_intervals();
        assert_eq!(comp_mass.len(), cells, "competing-mass table shape mismatch");
        assert_eq!(caches.weight_act.len(), cells, "weight table shape mismatch");
        assert_eq!(caches.comp_min.len(), inst.num_intervals(), "bound cache shape mismatch");
        let mut engine = Self::assemble_with(inst, comp_mass, caches, threads, Stats::new());
        engine.setup_ns = start.elapsed().as_nanos() as u64;
        engine
    }

    /// The configured worker-thread count.
    #[inline]
    pub fn threads(&self) -> Threads {
        self.threads
    }

    /// The instance this engine scores.
    #[inline]
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// Accumulated instrumentation counters.
    #[inline]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable access for algorithms that fold their own counters in.
    #[inline]
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// The scheduled mass `M(u, t)` currently applied.
    #[inline]
    pub fn scheduled_mass(&self, user: usize, t: IntervalId) -> f64 {
        self.sched_mass[t.index() * self.inst.num_users() + user]
    }

    /// The competing mass `C(u, t)`.
    #[inline]
    pub fn competing_mass(&self, user: usize, t: IntervalId) -> f64 {
        self.comp_mass[t.index() * self.inst.num_users() + user]
    }

    /// The cached Luce share `m̂ / (C + m̂)` of `(user, t)` — maintained on
    /// every `apply`/`unapply`; property tests assert it stays bitwise equal
    /// to a recompute from the mass accessors above.
    #[inline]
    pub fn cached_share(&self, user: usize, t: IntervalId) -> f64 {
        self.share[t.index() * self.inst.num_users() + user]
    }

    /// The partial gain of one fixed reduction block of `e`'s column in
    /// interval `ti`: entries at positions [`block_range`]`(block, len)`,
    /// accumulated left-to-right. Blocks are the atoms of the deterministic
    /// summation order (DESIGN.md §2) — every code path combines them in
    /// ascending block index, so thread count never changes a bit.
    ///
    /// This is the fused kernel: the column walk matches the layout
    /// **once** per block (not per entry), and each user costs one division
    /// and one multiply over four contiguous `f64` streams plus the interest
    /// column.
    fn block_gain(&self, e: EventId, ti: usize, block: usize, len: usize) -> f64 {
        let users = self.inst.num_users();
        let base = ti * users;
        let num = &self.num_base[base..base + users];
        let tot = &self.tot_mass[base..base + users];
        let share = &self.share[base..base + users];
        let wact = &self.weight_act[base..base + users];
        let mut total = 0.0;
        self.inst.event_interest.for_each_in_part(e.index(), block_range(block, len), |u, mu| {
            total += wact[u] * cached_gain(num[u], tot[u], share[u], mu);
        });
        total
    }

    /// Marginal attendance gain of one spanned interval: the fixed-block
    /// reduction over `e`'s column, fanned across `threads` when the column
    /// spans several blocks.
    fn span_gain(&self, e: EventId, ti: usize, threads: Threads) -> f64 {
        let len = self.inst.event_interest.column_len(e.index());
        let n_blocks = block_count(len);
        if threads.is_sequential() || n_blocks < 2 {
            let mut total = 0.0;
            for b in 0..n_blocks {
                total += self.block_gain(e, ti, b, len);
            }
            total
        } else {
            let mut partials = vec![0.0f64; n_blocks];
            par_chunks_mut(threads, &mut partials, 1, |b, out| {
                out[0] = self.block_gain(e, ti, b, len);
            });
            // Combine in ascending block order — the same fold the
            // sequential branch performs.
            partials.iter().sum()
        }
    }

    fn score_impl(&self, e: EventId, t: IntervalId, threads: Threads) -> f64 {
        let d = self.inst.events[e.index()].duration as usize;
        debug_assert!(
            t.index() + d <= self.inst.num_intervals(),
            "scoring an assignment that runs off the calendar"
        );
        let mut s = 0.0;
        for ti in t.index()..t.index() + d {
            s += self.span_gain(e, ti, threads);
        }
        s
    }

    /// The paper's per-score cost of `e`: entries touched per user sweep
    /// times the spanned intervals — exactly what
    /// [`assignment_score`](Self::assignment_score) records in [`Stats`].
    #[inline]
    pub fn score_cost(&self, e: EventId) -> usize {
        self.inst.event_interest.column_len(e.index())
            * self.inst.events[e.index()].duration as usize
    }

    /// Computes the assignment score `α_e^t.S` (Eq. 4): the gain in expected
    /// attendance from adding `e` to interval `t` under the current masses.
    /// Counts as an initial score computation.
    pub fn assignment_score(&mut self, e: EventId, t: IntervalId) -> f64 {
        self.stats.record_score(self.score_cost(e));
        self.timed_score(e, t)
    }

    /// Same as [`assignment_score`](Self::assignment_score) but counted as a
    /// score *update* (a re-computation after a selection).
    pub fn assignment_score_update(&mut self, e: EventId, t: IntervalId) -> f64 {
        self.stats.record_update(self.score_cost(e));
        self.timed_score(e, t)
    }

    /// `score_impl` with optional per-phase timing — the profile branch is
    /// a `None` check in the common case.
    #[inline]
    fn timed_score(&mut self, e: EventId, t: IntervalId) -> f64 {
        match self.profile.is_some() {
            false => self.score_impl(e, t, self.threads),
            true => {
                let start = Instant::now();
                let s = self.score_impl(e, t, self.threads);
                let p = self.profile.as_mut().expect("checked above");
                p.score_ns += start.elapsed().as_nanos() as u64;
                p.scores += 1;
                s
            }
        }
    }

    /// A cheap **upper bound** on [`assignment_score`](Self::assignment_score)
    /// in `O(duration)` — no user sweep. Per spanned interval `t`:
    ///
    /// ```text
    /// Σ_u w·σ·gain ≤ (max_u w·σ) · Σ_u min(1, µ_u / C_min)
    ///              ≤ wact_max[t] · min(nnz(e), µ_sum(e) / C_min[t])
    /// ```
    ///
    /// using `gain(c, m, µ) ≤ µ/(c+m+µ) ≤ min(1, µ/C_min)` (the Luce gain is
    /// `µ·c/((c+m+µ)(c+m))` for `c+m > 0` and exactly `1` at `c+m = 0`), the
    /// cached interest column sum, and the static per-interval invariants.
    /// A `1 + 1e-9` inflation dominates float rounding, keeping the bound
    /// sound, so a candidate whose bound is *strictly* below the current Φ
    /// can never be the selected argmax — the bound-first gate's soundness
    /// argument (DESIGN.md §9).
    pub fn score_bound(&self, e: EventId, t: IntervalId) -> f64 {
        let nnz = self.inst.event_interest.column_len(e.index()) as f64;
        let mu_sum = self.inst.event_interest.column_sum(e.index());
        let d = self.inst.events[e.index()].duration as usize;
        let mut bound = 0.0;
        for ti in t.index()..t.index() + d {
            let cap =
                if self.comp_min[ti] > 0.0 { (mu_sum / self.comp_min[ti]).min(nnz) } else { nnz };
            bound += self.weight_act_max[ti] * cap;
        }
        bound * (1.0 + 1e-9)
    }

    /// The assignment score without touching [`Stats`] and without
    /// engine-level fan-out — always evaluated on the calling thread.
    ///
    /// This is the building block for schedulers that parallelize *candidate
    /// generation* instead (one thread per score-table row): the pool does
    /// not nest, and the fixed-block reduction makes the result bit-identical
    /// to [`assignment_score`](Self::assignment_score) anyway. Callers replay
    /// the `Stats` bookkeeping afterwards via [`score_cost`](Self::score_cost)
    /// + [`Stats::record_score`].
    pub fn peek_score(&self, e: EventId, t: IntervalId) -> f64 {
        self.score_impl(e, t, Threads::sequential())
    }

    /// Applies a selected assignment: folds `e`'s interest into the scheduled
    /// mass of every interval it spans and refreshes the fused caches of the
    /// touched cells. Subsequent scores for those intervals reflect the new
    /// competition.
    pub fn apply(&mut self, e: EventId, t: IntervalId) {
        self.stats.record_selection();
        self.timed_mass_delta(e, t, 1.0);
    }

    /// Reverts [`apply`](Self::apply) — used by backtracking solvers.
    pub fn unapply(&mut self, e: EventId, t: IntervalId) {
        self.timed_mass_delta(e, t, -1.0);
    }

    #[inline]
    fn timed_mass_delta(&mut self, e: EventId, t: IntervalId, sign: f64) {
        match self.profile.is_some() {
            false => self.mass_delta(e, t, sign),
            true => {
                let start = Instant::now();
                self.mass_delta(e, t, sign);
                let p = self.profile.as_mut().expect("checked above");
                p.apply_ns += start.elapsed().as_nanos() as u64;
                p.applies += 1;
            }
        }
    }

    /// Re-derives the fused caches of one `(u, t)` cell from its raw masses —
    /// the single definition of the cache invariant: `num_base` is the
    /// clamped mass, `tot_mass` the Luce denominator, `share` the old share,
    /// each computed by exactly the expression the pre-fusion kernel
    /// evaluated per score (so cached and inline values are bit-equal).
    #[inline]
    fn refresh_cell(&mut self, idx: usize) {
        let m = self.sched_mass[idx];
        let m_hat = if m < MASS_SNAP { 0.0 } else { m };
        let tot = self.comp_mass[idx] + m_hat;
        self.num_base[idx] = m_hat;
        self.tot_mass[idx] = tot;
        self.share[idx] = if tot > 0.0 { m_hat / tot } else { 0.0 };
    }

    fn mass_delta(&mut self, e: EventId, t: IntervalId, sign: f64) {
        let inst = self.inst;
        let users = inst.num_users();
        let d = inst.events[e.index()].duration as usize;
        for ti in t.index()..t.index() + d {
            let base = ti * users;
            if sign >= 0.0 {
                self.sched_events[ti] += 1;
                inst.event_interest.for_each(e.index(), |u, mu| {
                    let idx = base + u;
                    let was_zero = self.sched_mass[idx] == 0.0;
                    self.sched_mass[idx] += mu;
                    if was_zero && self.sched_mass[idx] != 0.0 {
                        self.dirty_cells[ti] += 1;
                    }
                    self.refresh_cell(idx);
                });
            } else {
                // Subtractive update (backtracking): snap float residue to
                // exact zero. The Luce share m/(c+m) is *discontinuous* at
                // m = 0 when c = 0 — a ±1e-16 leftover would otherwise flip
                // a user's share from 0 to 1 and silently corrupt every
                // subsequent score (found by a property test via the exact
                // solver losing to greedy).
                inst.event_interest.for_each(e.index(), |u, mu| {
                    let idx = base + u;
                    let was_zero = self.sched_mass[idx] == 0.0;
                    let cell = &mut self.sched_mass[idx];
                    *cell -= mu;
                    if cell.abs() < MASS_SNAP {
                        *cell = 0.0;
                    }
                    let is_zero = self.sched_mass[idx] == 0.0;
                    match (was_zero, is_zero) {
                        (true, false) => self.dirty_cells[ti] += 1,
                        (false, true) => self.dirty_cells[ti] -= 1,
                        _ => {}
                    }
                    self.refresh_cell(idx);
                });
                self.sched_events[ti] = self.sched_events[ti].saturating_sub(1);
                if self.sched_events[ti] == 0 && self.dirty_cells[ti] > 0 {
                    // The interval's scheduled event set is empty again but
                    // some cell kept a residue the per-cell snap missed:
                    // hard-reset the row to exact zeros, wiping the float
                    // residue of *every* event that ever visited the
                    // interval. The dirty-cell counter makes this scan-free
                    // in the common case (all cells subtracted back to
                    // exact zero already).
                    for idx in base..base + users {
                        if self.sched_mass[idx] != 0.0 {
                            self.sched_mass[idx] = 0.0;
                            self.refresh_cell(idx);
                        }
                    }
                    self.dirty_cells[ti] = 0;
                }
            }
        }
    }

    /// Switches on per-phase wall-clock attribution (engine construction
    /// time is captured retroactively). Costs one branch per score/apply.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(EngineProfile { setup_ns: self.setup_ns, ..Default::default() });
    }

    /// Takes the accumulated profile, if profiling was enabled.
    pub fn take_profile(&mut self) -> Option<EngineProfile> {
        self.profile.take()
    }

    /// Folds externally measured scoring time (parallel candidate
    /// generation, which runs through [`peek_score`](Self::peek_score) on
    /// pool workers) into the profile, if enabled.
    pub fn add_scoring_time(&mut self, ns: u64, scores: u64) {
        if let Some(p) = self.profile.as_mut() {
            p.score_ns += ns;
            p.scores += scores;
        }
    }
}

/// Residue threshold for subtractive mass updates: far below any meaningful
/// interest value, far above accumulated f64 noise.
const MASS_SNAP: f64 = 1e-9;

/// The per-user Luce-share gain of adding interest `mu` on top of competing
/// mass `c` and scheduled mass `m`:
/// `(m + mu)/(c + m + mu) − m/(c + m)`, with the empty-denominator cases
/// resolved by Eq. 1's semantics (no offer ⇒ zero attendance).
///
/// Robustness: `m` below [`MASS_SNAP`] (including tiny negatives left by
/// subtractive engine updates) is treated as exactly zero — the share is
/// discontinuous at `m = 0` when `c = 0`, so residue must not leak through.
#[inline]
pub fn gain(c: f64, m: f64, mu: f64) -> f64 {
    let m = if m < MASS_SNAP { 0.0 } else { m };
    let old_denom = c + m;
    let new_denom = old_denom + mu;
    if new_denom <= 0.0 {
        return 0.0;
    }
    let new_share = (m + mu) / new_denom;
    let old_share = if old_denom > 0.0 { m / old_denom } else { 0.0 };
    new_share - old_share
}

/// [`gain`] restated over the engine's fused caches: `num = m̂` (clamped
/// mass), `tot = c + m̂`, `share = m̂/(c + m̂)`. One division and no residue
/// branch per call; bit-identical to `gain(c, m, µ)` because every operand
/// is the cached result of exactly the expression `gain` computes inline
/// (same operands, same operation order — see `refresh_cell`).
#[inline]
fn cached_gain(num: f64, tot: f64, share: f64, mu: f64) -> f64 {
    let den = tot + mu;
    if den <= 0.0 {
        return 0.0;
    }
    (num + mu) / den - share
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::running_example;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 5e-3
    }

    /// Initial scores of Figure 2, row ①.
    #[test]
    fn running_example_initial_scores() {
        let inst = running_example();
        let mut eng = ScoringEngine::new(&inst);
        let expect = [
            // (event, interval, paper score)
            (0, 0, 0.59),
            (1, 0, 0.52),
            (2, 0, 0.10),
            (3, 0, 0.64),
            (0, 1, 0.53),
            (1, 1, 0.57),
            (2, 1, 0.09),
            (3, 1, 0.66),
        ];
        for (e, t, want) in expect {
            let got = eng.assignment_score(EventId::new(e), IntervalId::new(t));
            assert!(approx(got, want), "score(e{e}, t{t}) = {got}, paper says {want}");
        }
        assert_eq!(eng.stats().score_computations, 8);
        // Dense interest: every score sweeps both users.
        assert_eq!(eng.stats().user_ops - 4 /* competing setup */, 16);
    }

    /// Updated scores of Figure 2 rows ② and ③ after each greedy selection.
    ///
    /// Note: the paper prints `α_{e1}^{t2} = 0.34` in row ②, which equals the
    /// *standalone* attendance ω′ of e1 given e4 — not the Eq.-4 marginal
    /// gain (≈ 0.13). Every other updated cell (e2: 0.16, e3: 0.03, e3@t1:
    /// 0.05) matches the marginal-gain reading, and only that reading makes
    /// utility telescope (Eq. 3), so we treat 0.34 as a typo and assert 0.13.
    #[test]
    fn running_example_updated_scores() {
        let inst = running_example();
        let mut eng = ScoringEngine::new(&inst);
        // Selection ①: e4 @ t2.
        eng.apply(EventId::new(3), IntervalId::new(1));
        assert!(approx(eng.assignment_score_update(EventId::new(0), IntervalId::new(1)), 0.13));
        assert!(approx(eng.assignment_score_update(EventId::new(1), IntervalId::new(1)), 0.16));
        assert!(approx(eng.assignment_score_update(EventId::new(2), IntervalId::new(1)), 0.03));
        // Selection ②: e1 @ t1.
        eng.apply(EventId::new(0), IntervalId::new(0));
        assert!(approx(eng.assignment_score_update(EventId::new(2), IntervalId::new(0)), 0.05));
        // t1 scores for e2 unchanged? e2 shares e1's location so it is
        // *invalid* at t1 now — but the score function itself still evaluates.
        assert_eq!(eng.stats().score_updates, 4);
    }

    #[test]
    fn scores_shrink_as_interval_fills() {
        let inst = running_example();
        let mut eng = ScoringEngine::new(&inst);
        let before = eng.assignment_score(EventId::new(1), IntervalId::new(1));
        eng.apply(EventId::new(3), IntervalId::new(1));
        let after = eng.assignment_score(EventId::new(1), IntervalId::new(1));
        assert!(after < before, "stale score must upper-bound refreshed score");
    }

    #[test]
    fn apply_unapply_roundtrip() {
        let inst = running_example();
        let mut eng = ScoringEngine::new(&inst);
        let before = eng.assignment_score(EventId::new(0), IntervalId::new(1));
        eng.apply(EventId::new(3), IntervalId::new(1));
        eng.unapply(EventId::new(3), IntervalId::new(1));
        let after = eng.assignment_score(EventId::new(0), IntervalId::new(1));
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn gain_edge_cases() {
        // Nothing on offer, nothing added.
        assert_eq!(gain(0.0, 0.0, 0.0), 0.0);
        // First event in an empty, competition-free interval captures all.
        assert_eq!(gain(0.0, 0.0, 0.5), 1.0);
        // Zero-interest event adds nothing.
        assert_eq!(gain(0.3, 0.4, 0.0), 0.0);
        // Strictly positive gain when mu > 0.
        assert!(gain(0.3, 0.4, 0.2) > 0.0);
    }

    #[test]
    fn gain_monotone_decreasing_in_scheduled_mass() {
        let (c, mu) = (0.4, 0.6);
        let mut last = f64::INFINITY;
        for i in 0..20 {
            let m = i as f64 * 0.25;
            let g = gain(c, m, mu);
            assert!(g <= last + 1e-15, "gain must not increase with m");
            last = g;
        }
    }

    #[test]
    fn weighted_users_scale_scores() {
        let mut inst = running_example();
        let mut eng = ScoringEngine::new(&inst);
        let unweighted = eng.assignment_score(EventId::new(0), IntervalId::new(0));
        inst.user_weights = Some(vec![2.0, 2.0]);
        let mut eng2 = ScoringEngine::new(&inst);
        let weighted = eng2.assignment_score(EventId::new(0), IntervalId::new(0));
        assert!((weighted - 2.0 * unweighted).abs() < 1e-12);
    }

    #[test]
    fn duration_event_scores_both_spans() {
        let mut inst = running_example();
        inst.events[2].duration = 2; // e3 spans t1..t2
        let mut eng = ScoringEngine::new(&inst);
        let spanning = eng.assignment_score(EventId::new(2), IntervalId::new(0));
        inst.events[2].duration = 1;
        let mut eng2 = ScoringEngine::new(&inst);
        let at_t1 = eng2.assignment_score(EventId::new(2), IntervalId::new(0));
        let at_t2 = eng2.assignment_score(EventId::new(2), IntervalId::new(1));
        assert!((spanning - (at_t1 + at_t2)).abs() < 1e-12);
    }

    #[test]
    fn sparse_and_dense_scores_agree() {
        let inst = running_example();
        let mut sparse_inst = inst.clone();
        sparse_inst.event_interest = inst.event_interest.to_sparse().into();
        sparse_inst.competing_interest = inst.competing_interest.to_sparse().into();

        let mut de = ScoringEngine::new(&inst);
        let mut se = ScoringEngine::new(&sparse_inst);
        for e in 0..4 {
            for t in 0..2 {
                let d = de.assignment_score(EventId::new(e), IntervalId::new(t));
                let s = se.assignment_score(EventId::new(e), IntervalId::new(t));
                assert!((d - s).abs() < 1e-12, "e{e} t{t}: dense {d} vs sparse {s}");
            }
        }
        // Sparse does strictly less per-user work (e3 has one non-zero).
        assert!(se.stats().user_ops < de.stats().user_ops);
    }
}

#[cfg(test)]
mod residue_regression {
    use super::*;
    use crate::ids::LocationId;
    use crate::model::{running_example, ActivityMatrix, DenseInterest, Event, InstanceBuilder};

    /// Regression for the backtracking-residue bug: after an apply/unapply
    /// cycle, a user with zero competing mass must still grant the full
    /// first-event gain (the Luce share is discontinuous at m = 0, so even
    /// a 1e-16 residue used to swallow it entirely).
    #[test]
    fn unapply_residue_does_not_flip_empty_interval_share() {
        let mut b = InstanceBuilder::new();
        b.add_event(Event::new(LocationId::new(0), 1.0));
        b.add_event(Event::new(LocationId::new(1), 1.0));
        b.add_intervals(1);
        // One user, no competing events: µ values chosen so that the
        // subtraction leaves a float residue (0.1 has no exact binary rep).
        let inst = b
            .event_interest(DenseInterest::from_raw(2, 1, vec![0.1, 0.7]).unwrap())
            .activity(ActivityMatrix::constant(1, 1, 1.0))
            .resources(10.0)
            .build()
            .unwrap();

        let mut eng = ScoringEngine::new(&inst);
        let clean = eng.assignment_score(EventId::new(1), IntervalId::new(0));
        assert_eq!(clean, 1.0, "first event in an empty, competition-free slot captures σ");

        // Churn the masses: repeated apply/unapply of the other event.
        for _ in 0..7 {
            eng.apply(EventId::new(0), IntervalId::new(0));
            eng.unapply(EventId::new(0), IntervalId::new(0));
        }
        let after = eng.assignment_score(EventId::new(1), IntervalId::new(0));
        assert_eq!(after, clean, "residue corrupted the empty-interval share");
        assert_eq!(eng.scheduled_mass(0, IntervalId::new(0)), 0.0, "mass must snap to zero");
    }

    /// `gain` itself is robust to residue-scale inputs, positive or negative.
    #[test]
    fn gain_clamps_residue_mass() {
        assert_eq!(gain(0.0, 1e-16, 0.5), 1.0);
        assert_eq!(gain(0.0, -1e-16, 0.5), 1.0);
        assert_eq!(gain(0.0, 0.0, 0.5), 1.0);
        // Real (non-residue) masses are untouched.
        assert!(gain(0.0, 0.5, 0.5) < 1.0);
    }

    /// When an interval's scheduled event set empties, the whole scheduled
    /// state is hard-reset: every user's mass, clamped mass, and share go
    /// back to *exact* zero — not "small residue below the snap threshold" —
    /// and subsequent scores are bitwise equal to a fresh engine's.
    #[test]
    fn empty_interval_hard_resets_to_exact_zero() {
        let mut b = InstanceBuilder::new();
        for l in 0..3 {
            b.add_event(Event::new(LocationId::new(l), 1.0));
        }
        b.add_intervals(1);
        let inst = b
            .event_interest(
                DenseInterest::from_raw(3, 2, vec![0.1, 0.3, 0.7, 0.2, 0.9, 0.6]).unwrap(),
            )
            .activity(ActivityMatrix::constant(2, 1, 1.0))
            .resources(10.0)
            .build()
            .unwrap();

        let mut eng = ScoringEngine::new(&inst);
        let t = IntervalId::new(0);
        let fresh = eng.assignment_score(EventId::new(2), t);
        // Stack two events, then remove them in the opposite order.
        eng.apply(EventId::new(0), t);
        eng.apply(EventId::new(1), t);
        eng.unapply(EventId::new(0), t);
        eng.unapply(EventId::new(1), t);
        for u in 0..2 {
            assert_eq!(eng.scheduled_mass(u, t).to_bits(), 0.0f64.to_bits(), "user {u} mass");
            assert_eq!(eng.cached_share(u, t).to_bits(), 0.0f64.to_bits(), "user {u} share");
        }
        let again = eng.assignment_score(EventId::new(2), t);
        assert_eq!(fresh.to_bits(), again.to_bits(), "post-reset score must equal a cold score");
    }

    /// The cached share table tracks `m̂/(C+m̂)` bitwise through apply/unapply
    /// churn (the deeper randomized version lives in `tests/properties.rs`).
    #[test]
    fn cached_share_matches_recompute() {
        let inst = running_example();
        let mut eng = ScoringEngine::new(&inst);
        eng.apply(EventId::new(3), IntervalId::new(1));
        eng.apply(EventId::new(0), IntervalId::new(0));
        eng.unapply(EventId::new(3), IntervalId::new(1));
        eng.apply(EventId::new(1), IntervalId::new(1));
        for t in 0..2 {
            let interval = IntervalId::new(t);
            for u in 0..2 {
                let m = eng.scheduled_mass(u, interval);
                let c = eng.competing_mass(u, interval);
                let m_hat = if m < MASS_SNAP { 0.0 } else { m };
                let tot = c + m_hat;
                let want = if tot > 0.0 { m_hat / tot } else { 0.0 };
                assert_eq!(
                    eng.cached_share(u, interval).to_bits(),
                    want.to_bits(),
                    "share(u{u}, t{t})"
                );
            }
        }
    }

    /// `score_bound` upper-bounds the true assignment score at every
    /// schedule state it is consulted in.
    #[test]
    fn score_bound_dominates_score() {
        let inst = running_example();
        let mut eng = ScoringEngine::new(&inst);
        let check = |eng: &mut ScoringEngine<'_>, label: &str| {
            for e in 0..4 {
                for t in 0..2 {
                    let (event, interval) = (EventId::new(e), IntervalId::new(t));
                    let score = eng.assignment_score(event, interval);
                    let bound = eng.score_bound(event, interval);
                    assert!(bound >= score, "{label}: bound {bound} < score {score} (e{e}, t{t})");
                }
            }
        };
        check(&mut eng, "empty");
        eng.apply(EventId::new(3), IntervalId::new(1));
        check(&mut eng, "one applied");
        eng.apply(EventId::new(0), IntervalId::new(0));
        check(&mut eng, "two applied");
    }

    /// Profiling attributes wall time per phase without perturbing results.
    #[test]
    fn profiling_records_phases() {
        let inst = running_example();
        let mut plain = ScoringEngine::new(&inst);
        let mut profiled = ScoringEngine::new(&inst);
        profiled.enable_profiling();
        for (e, t) in [(0, 0), (3, 1)] {
            let a = plain.assignment_score(EventId::new(e), IntervalId::new(t));
            let b = profiled.assignment_score(EventId::new(e), IntervalId::new(t));
            assert_eq!(a.to_bits(), b.to_bits());
        }
        profiled.apply(EventId::new(3), IntervalId::new(1));
        let p = profiled.take_profile().expect("profiling was enabled");
        assert_eq!(p.scores, 2);
        assert_eq!(p.applies, 1);
        assert!(profiled.take_profile().is_none(), "take drains the profile");
    }
}

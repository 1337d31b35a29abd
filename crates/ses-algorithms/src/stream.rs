//! `STREAM` — incremental re-scheduling for dynamic event streams.
//!
//! The paper schedules a *static* batch; [`StreamScheduler`] maintains a
//! schedule while the instance evolves under a [`DeltaOp`] log. Instead of
//! rerunning a scheduler end-to-end per op, each repair warm-starts from
//! two caches:
//!
//! 1. the engine's **competing-mass table** `C(u,t)` — the `O(|U|·|C|)`
//!    setup term — maintained incrementally by
//!    [`ses_core::delta::refresh_comp_mass`] (bit-identical to a cold
//!    rebuild);
//! 2. the **empty-schedule score table**: for every assignment `(e, t)`,
//!    either the exact Eq.-4 score on the empty schedule or a sound *upper
//!    bound* on it.
//!
//! Per op, only the affected table cells are repaired (the invalidation
//! contract lives in `ses_core::delta`'s module docs):
//!
//! * `AddEvent` / `ShiftInterest` — rescore that event's `|T|` cells;
//! * `RemoveEvent` — drop the column, everything else stays exact;
//! * `AddUsers` / `RetireUsers` — no rescoring: a user's contribution to an
//!   empty-schedule score is separable (`w(u)·σ(u,t)·gain(C(u,t), 0, µ)`
//!   summed over the spanned intervals), so each cell's cached value plus
//!   (minus) the churned users' contributions is the new score up to
//!   summation-order float error. A relative safety epsilon keeps it a
//!   *sound upper bound*; exactness (bit-identity) is restored only by a
//!   real refresh.
//!
//! Selection then re-runs INC's own selection core (`inc::Selection`,
//! §3.2's Corollary 1) seeded from the table: bound-only entries are
//! refreshed lazily, exactly when their bound could still win a round, and
//! a refresh that lands on a still-virgin span is written back to the
//! table as exact — repeated repairs converge back to a fully exact cache.
//!
//! ### Why repair is result-equivalent to full recompute
//!
//! Every round still selects the *true greedy argmax* among valid
//! assignments under the canonical [`Cand`] tie-break — the bound
//! machinery only decides what gets refreshed, never what wins. A full
//! recompute (INC, or a cold [`StreamScheduler::new`]) makes the same
//! argmax selections, so schedules match assignment-for-assignment and
//! utilities bit-for-bit; `tests/stream_equivalence.rs` proves it against
//! `INC` over 500-op streams at 1 and 4 threads. What differs is the work:
//! a repair's `assignments_examined` stays strictly below a recompute's
//! (which must rescore all `|E|·|T|` cells) for every single-op delta.

use crate::common::{better, score_cell, score_table, Cand, Scratch, TableEntry};
use crate::inc::Selection;
use serde::{Deserialize, Serialize};
use ses_core::delta::coalesce::CoalesceError;
use ses_core::delta::{self, DeltaEffect, DeltaOp};
use ses_core::error::{DeltaError, ServiceError};
use ses_core::model::Instance;
use ses_core::parallel::Threads;
use ses_core::schedule::{Assignment, Schedule};
use ses_core::scoring::utility::total_utility;
use ses_core::scoring::{ScoringEngine, StaticCaches};
use ses_core::stats::Stats;
use ses_core::{EventId, IntervalId};
use std::time::Instant;

/// Measurements of one repair (or of the cold build, for the first
/// report): what it cost and what it produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairReport {
    /// Score-table cells recomputed eagerly during table maintenance.
    pub rescored: usize,
    /// This repair's counters (scores, user ops, assignments examined).
    pub stats: Stats,
    /// Utility Ω(S) of the repaired schedule.
    pub utility: f64,
    /// Size of the repaired schedule.
    pub schedule_len: usize,
    /// Wall-clock milliseconds of the repair.
    pub time_ms: f64,
}

/// One serialized score-table cell — the public mirror of the private
/// cache entry, so durable snapshots have an explicit layout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableCellState {
    /// The cached empty-schedule score — exact, or a sound upper bound.
    pub score: f64,
    /// Whether `score` is the exact blocked-reduction value.
    pub exact: bool,
}

/// Serialized form of a [`StreamScheduler`] — the history a restored
/// repairer cannot recompute from its instance: the maintained schedule
/// (as its assignments, in selection order), the score table with its
/// exact/bound flags (stale scores are upper bounds, so the flags steer
/// future lazy refreshes and therefore future `Stats`), and the counters.
/// The competing-mass table and the static engine caches are pure
/// functions of the instance and are rebuilt on load. Produced by
/// [`StreamScheduler::to_state`], consumed by
/// [`StreamScheduler::from_state`]; the instance travels beside it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamState {
    /// Maintained schedule size `k`.
    pub k: usize,
    /// Resolved worker-thread count (≥ 1). Results are thread-invariant;
    /// this only preserves the service's warm-match behavior on restore.
    pub threads: usize,
    /// Whether the bound-first gate is enabled for repairs.
    pub bound_gate: bool,
    /// Empty-schedule score table, `[t·|E| + e]`; `None` marks cells
    /// infeasible on the empty schedule.
    pub table: Vec<Option<TableCellState>>,
    /// The maintained schedule's assignments, in selection order.
    pub schedule: Vec<Assignment>,
    /// Ω(S) of the maintained schedule.
    pub utility: f64,
    /// Counters accumulated since the cold build.
    pub cumulative: Stats,
    /// The most recent repair's measurements, wall-clock zeroed — snapshot
    /// bytes are fully deterministic for a seeded session.
    pub last: RepairReport,
    /// Ops applied so far.
    pub ops_applied: u64,
}

/// Replays persisted assignments through the feasibility gate and checks
/// that they reproduce the stored Ω(S) bits — the one load check for every
/// persisted schedule.
///
/// # Errors
/// A rendered description of the first failing check; callers wrap it in
/// their own corrupt-state error.
pub(crate) fn replay_schedule(
    inst: &Instance,
    assignments: &[Assignment],
    utility: f64,
) -> Result<Schedule, String> {
    let mut schedule = Schedule::new(inst);
    for a in assignments {
        schedule.assign(inst, a.event, a.interval).map_err(|e| format!("schedule replay: {e}"))?;
    }
    if total_utility(inst, &schedule).to_bits() != utility.to_bits() {
        return Err("stored utility does not match the schedule".into());
    }
    Ok(schedule)
}

/// Maintains a schedule over a live instance under a [`DeltaOp`] stream
/// (see the module docs for the repair machinery and its equivalence
/// guarantee).
///
/// The repairer owns only its caches; the instance lives beside it and is
/// passed to every call. Each call must pass the instance the repairer was
/// built on, in the state its previous call left it — the caches describe
/// exactly that instance.
#[derive(Debug)]
pub struct StreamScheduler {
    k: usize,
    threads: Threads,
    /// Warm competing-mass table `C(u,t)`, `[t·|U| + u]`.
    comp_mass: Vec<f64>,
    /// Empty-schedule score table, `[t·|E| + e]`; `None` marks assignments
    /// infeasible on the empty schedule (off-calendar spans).
    table: Vec<Option<TableEntry>>,
    schedule: Schedule,
    utility: f64,
    cumulative: Stats,
    last: RepairReport,
    ops_applied: u64,
    /// Reusable selection buffers — repairs after the first allocate
    /// nothing in the scheduling loop.
    scratch: Scratch,
    /// Warm instance-static engine caches (fused weight table + bound
    /// invariants), reused across repairs and invalidated only by user
    /// churn — the ops that can change user weights, activity rows, or
    /// competing masses.
    engine_caches: Option<StaticCaches>,
    /// Opt-in bound-first gate for the repair's lazy refreshes (see
    /// [`crate::common::RunConfig::bound_gate`]; selection-neutral).
    bound_gate: bool,
}

impl StreamScheduler {
    /// Cold build: fresh engine (pays the competing-mass setup), full
    /// `|E|·|T|` score table, one selection run. This is also the "full
    /// recompute" baseline the incremental path is measured against —
    /// [`last_repair`](Self::last_repair) holds its cost.
    pub fn new(inst: &Instance, k: usize, threads: Threads) -> Self {
        let start = Instant::now();
        let mut stream = Self {
            k,
            threads,
            comp_mass: Vec::new(),
            table: Vec::new(),
            schedule: Schedule::new(inst),
            utility: 0.0,
            cumulative: Stats::default(),
            last: RepairReport {
                rescored: 0,
                stats: Stats::default(),
                utility: 0.0,
                schedule_len: 0,
                time_ms: 0.0,
            },
            ops_applied: 0,
            scratch: Scratch::new(),
            engine_caches: None,
            bound_gate: false,
        };
        let engine = ScoringEngine::with_threads(inst, threads);
        stream.repair(inst, engine, start, 0, Stats::default(), |table, engine| {
            score_table(engine, false, table);
            // Every cell the cold build scores counts as examined.
            let scored = table.iter().flatten().count();
            engine.stats_mut().record_examined(scored as u64);
            scored
        });
        stream
    }

    /// Toggles the bound-first gate for subsequent repairs. The gate never
    /// changes a repaired schedule or utility — only how many stale
    /// candidates pay for a full refresh sweep (`Stats::bound_skips` counts
    /// the ones that did not).
    pub fn with_bound_gate(mut self, on: bool) -> Self {
        self.bound_gate = on;
        self
    }

    /// Applies one op to `inst` and repairs the schedule. Returns this
    /// repair's measurements (also available as
    /// [`last_repair`](Self::last_repair)).
    ///
    /// # Errors
    /// Any [`DeltaError`] from validation; on error nothing changes.
    pub fn apply(
        &mut self,
        inst: &mut Instance,
        op: &DeltaOp,
    ) -> Result<&RepairReport, DeltaError> {
        let start = Instant::now();
        let (effect, adjust) = self.apply_op(inst, op)?;
        self.ops_applied += 1;
        let engine = self.warm_engine(inst);
        let gate = self.bound_gate;
        Ok(self.repair(inst, engine, start, 0, Stats::default(), |table, engine| {
            maintain_table(table, &effect, engine, adjust, gate)
        }))
    }

    /// Applies a whole batch of ops under a **single** repair: the score
    /// table is maintained per op (same invalidation contract as
    /// [`apply`](Self::apply)), but the selection loop — the dominant cost
    /// of a repair — runs once, at the end. Because selection always
    /// re-derives the true greedy argmax sequence on the live instance,
    /// the resulting schedule, utility bits, and assignments are identical
    /// to applying the same ops one at a time (what differs is the work,
    /// which the per-window `Stats` in the report measure).
    ///
    /// [`ops_applied`](Self::ops_applied) counts every op of the batch.
    ///
    /// # Errors
    /// [`CoalesceError`] wrapping the first rejected op. The valid prefix
    /// stays applied and selection still runs, so the schedule always
    /// matches the live instance even on failure.
    pub fn apply_batch(
        &mut self,
        inst: &mut Instance,
        ops: &[DeltaOp],
    ) -> Result<&RepairReport, CoalesceError> {
        let start = Instant::now();
        let mut rescored = 0usize;
        let mut table_stats = Stats::default();
        let mut failed = None;
        for (op_index, op) in ops.iter().enumerate() {
            let (effect, adjust) = match self.apply_op(inst, op) {
                Ok(applied) => applied,
                Err(source) => {
                    failed = Some(CoalesceError { op_index, source });
                    break;
                }
            };
            self.ops_applied += 1;
            let mut engine = self.warm_engine(inst);
            rescored +=
                maintain_table(&mut self.table, &effect, &mut engine, adjust, self.bound_gate);
            table_stats += *engine.stats();
            self.keep_warm_parts(engine);
        }
        // One selection for the whole batch — also after a mid-batch
        // failure, so the schedule matches whatever prefix was applied.
        let engine = self.warm_engine(inst);
        let report = self.repair(inst, engine, start, rescored, table_stats, |_, _| 0);
        match failed {
            Some(err) => Err(err),
            None => Ok(report),
        }
    }

    /// Coalesces `window` against `inst` (see
    /// [`ses_core::delta::coalesce`]) and applies the canonical batch under
    /// one repair — the windowed-ingestion entry point. The repaired
    /// schedule and utility bits equal both the op-at-a-time path and a
    /// cold rebuild of the post-window instance.
    ///
    /// [`ops_applied`](Self::ops_applied) advances by the *coalesced* op
    /// count (the ops the scheduler actually consumed), which may be far
    /// below `window.len()` on redundant traffic.
    ///
    /// # Errors
    /// [`CoalesceError`] from window validation, indexed by window
    /// position; nothing is applied in that case (window-atomic, unlike
    /// the op-at-a-time path's per-op atomicity).
    pub fn repair_batch(
        &mut self,
        inst: &mut Instance,
        window: &[DeltaOp],
    ) -> Result<&RepairReport, CoalesceError> {
        let batch = delta::coalesce::coalesce(inst, window)?;
        // The coalesced batch re-validates clean by construction; any
        // rejection here would be an internal invariant breach, so the
        // error (with its batch-local index) is simply propagated.
        self.apply_batch(inst, &batch)
    }

    /// Replaces `inst`'s [`ConstraintSet`] wholesale and repairs the
    /// schedule under the new rules — the warm-path counterpart of building
    /// a constrained instance cold (the service's `Schedule` request with a
    /// `constraints` block routes here when a stream session is live).
    ///
    /// Scores are constraint-independent, so no cached score is touched;
    /// only the table's empty-schedule *validity mask* is reconciled (cells
    /// the new rules open up get scored, cells they close get dropped), and
    /// selection re-runs through the constraint-aware `check_assign` gate.
    ///
    /// # Errors
    /// Any [`BuildError`] from validating the set against the current
    /// events; nothing changes on error.
    ///
    /// [`ConstraintSet`]: ses_core::constraints::ConstraintSet
    /// [`BuildError`]: ses_core::error::BuildError
    pub fn set_constraints(
        &mut self,
        inst: &mut Instance,
        constraints: ses_core::constraints::ConstraintSet,
    ) -> Result<&RepairReport, ses_core::error::BuildError> {
        self.debug_check_instance(inst);
        constraints.validate(inst.num_events())?;
        let start = Instant::now();
        inst.constraints = constraints;
        let engine = self.warm_engine(inst);
        let gate = self.bound_gate;
        Ok(self.repair(inst, engine, start, 0, Stats::default(), |table, engine| {
            reconcile_validity(table, engine, gate)
        }))
    }

    /// Applies one op to `inst` and refreshes the competing-mass table,
    /// returning the op's effect and — for user churn — the churned users'
    /// per-cell score contributions the table maintenance adjusts by. User
    /// churn also drops the static engine caches (weights and activity
    /// rows resize, competing masses change).
    fn apply_op(
        &mut self,
        inst: &mut Instance,
        op: &DeltaOp,
    ) -> Result<(DeltaEffect, Option<Vec<f64>>), DeltaError> {
        self.debug_check_instance(inst);
        // Leaving users' bound deductions need their pre-op µ/σ/C values.
        let retire_adjust = match op {
            DeltaOp::RetireUsers { users } if users.iter().all(|&u| u < inst.num_users()) => {
                Some(user_cell_contributions(inst, &self.comp_mass, users))
            }
            _ => None,
        };
        let effect = delta::apply(inst, op)?;
        delta::refresh_comp_mass(&mut self.comp_mass, inst, &effect);
        let adjust = match &effect {
            DeltaEffect::UsersAdded { first, count } => {
                let joined: Vec<usize> = (*first..first + count).collect();
                Some(user_cell_contributions(inst, &self.comp_mass, &joined))
            }
            DeltaEffect::UsersRetired { .. } => retire_adjust,
            _ => None,
        };
        if matches!(effect, DeltaEffect::UsersAdded { .. } | DeltaEffect::UsersRetired { .. }) {
            self.engine_caches = None;
        }
        Ok((effect, adjust))
    }

    /// An engine over `inst` built from the warm competing-mass table,
    /// reusing the static caches when they are still valid.
    fn warm_engine<'a>(&mut self, inst: &'a Instance) -> ScoringEngine<'a> {
        // The score table may still be catching up with an applied op here;
        // the competing-mass table never is.
        debug_assert_eq!(
            self.comp_mass.len(),
            inst.num_users() * inst.num_intervals(),
            "instance does not match the repairer's competing-mass table"
        );
        let comp = std::mem::take(&mut self.comp_mass);
        match self.engine_caches.take() {
            Some(caches) => ScoringEngine::from_warm_parts(inst, comp, caches, self.threads),
            None => ScoringEngine::from_comp_mass(inst, comp, self.threads),
        }
    }

    /// Debug builds catch a caller passing an instance other than the one
    /// the caches describe: its shape must match theirs.
    fn debug_check_instance(&self, inst: &Instance) {
        debug_assert_eq!(
            self.comp_mass.len(),
            inst.num_users() * inst.num_intervals(),
            "instance does not match the repairer's competing-mass table"
        );
        debug_assert_eq!(
            self.table.len(),
            inst.num_events() * inst.num_intervals(),
            "instance does not match the repairer's score table"
        );
    }

    /// Takes the engine's warm parts back for the next repair.
    fn keep_warm_parts(&mut self, engine: ScoringEngine<'_>) {
        let (comp_mass, engine_caches) = engine.into_warm_parts();
        self.comp_mass = comp_mass;
        self.engine_caches = Some(engine_caches);
    }

    /// The repair cycle every entry point shares: `table_step` brings the
    /// score table up to date on `engine` (returning the cells it rescored
    /// eagerly), selection runs on the same engine, the engine's warm parts
    /// are kept, and the report is recorded. `rescored` and `prior` carry
    /// the work of maintenance engines that ran before this one.
    fn repair(
        &mut self,
        inst: &Instance,
        mut engine: ScoringEngine<'_>,
        start: Instant,
        rescored: usize,
        prior: Stats,
        table_step: impl FnOnce(&mut Vec<Option<TableEntry>>, &mut ScoringEngine<'_>) -> usize,
    ) -> &RepairReport {
        let rescored = rescored + table_step(&mut self.table, &mut engine);
        let schedule = run_selection(&mut engine, &mut self.table, self.k, &mut self.scratch);
        let stats = *engine.stats() + prior;
        self.keep_warm_parts(engine);
        self.utility = total_utility(inst, &schedule);
        self.schedule = schedule;
        self.cumulative += stats;
        self.last = RepairReport {
            rescored,
            stats,
            utility: self.utility,
            schedule_len: self.schedule.len(),
            time_ms: start.elapsed().as_secs_f64() * 1e3,
        };
        &self.last
    }

    /// The current repaired schedule.
    #[inline]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Ω(S) of the current schedule (independent evaluator).
    #[inline]
    pub fn utility(&self) -> f64 {
        self.utility
    }

    /// The requested schedule size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured worker-thread count. Results are bit-identical for
    /// every count — schedule, utility bits, and full [`Stats`].
    #[inline]
    pub fn threads(&self) -> Threads {
        self.threads
    }

    /// Whether the bound-first gate is enabled for repairs (see
    /// [`with_bound_gate`](Self::with_bound_gate)).
    #[inline]
    pub fn bound_gate(&self) -> bool {
        self.bound_gate
    }

    /// Counters accumulated since construction (cold build included).
    #[inline]
    pub fn stats(&self) -> &Stats {
        &self.cumulative
    }

    /// Measurements of the most recent repair (or of the cold build if no
    /// op was applied yet).
    #[inline]
    pub fn last_repair(&self) -> &RepairReport {
        &self.last
    }

    /// Number of ops applied so far.
    #[inline]
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Serializes the warm state for a durable snapshot (see
    /// [`StreamState`]). The selection scratch is excluded (pure capacity,
    /// behavior-neutral) and the report's wall clock is zeroed, so the
    /// state of a seeded session is deterministic byte for byte.
    pub fn to_state(&self) -> StreamState {
        StreamState {
            k: self.k,
            threads: self.threads.get(),
            bound_gate: self.bound_gate,
            table: self
                .table
                .iter()
                .map(|c| c.map(|c| TableCellState { score: c.score, exact: c.exact }))
                .collect(),
            schedule: self.schedule.assignments().to_vec(),
            utility: self.utility,
            cumulative: self.cumulative,
            last: RepairReport { time_ms: 0.0, ..self.last.clone() },
            ops_applied: self.ops_applied,
        }
    }

    /// Rebuilds a warm scheduler over `inst` (already validated by the
    /// caller) from a persisted state. The score table's shape is checked
    /// and the schedule is replayed (see [`replay_schedule`]). The
    /// competing-mass table and the static caches come from a cold engine:
    /// they are bitwise what the warm repairer maintained, because
    /// [`delta::refresh_comp_mass`] keeps the table equal to a cold build
    /// and the static caches are derived from it.
    ///
    /// # Errors
    /// [`ServiceError::Corrupt`] naming the first failing check; content
    /// that passes answers subsequent requests bit-identically to the
    /// scheduler [`to_state`](Self::to_state) captured.
    pub fn from_state(state: StreamState, inst: &Instance) -> Result<Self, ServiceError> {
        let corrupt = |what: String| ServiceError::corrupt(format!("stream state: {what}"));
        if state.threads == 0 {
            return Err(corrupt("thread count of 0".into()));
        }
        let cells = inst.num_events() * inst.num_intervals();
        if state.table.len() != cells {
            return Err(corrupt(format!(
                "score table has {} cells, instance needs {cells}",
                state.table.len()
            )));
        }
        let schedule = replay_schedule(inst, &state.schedule, state.utility).map_err(corrupt)?;
        let threads = Threads::new(state.threads);
        let (comp_mass, caches) = ScoringEngine::with_threads(inst, threads).into_warm_parts();
        Ok(Self {
            k: state.k,
            threads,
            comp_mass,
            table: state
                .table
                .iter()
                .map(|c| c.map(|c| TableEntry { score: c.score, exact: c.exact }))
                .collect(),
            schedule,
            utility: state.utility,
            cumulative: state.cumulative,
            last: state.last,
            ops_applied: state.ops_applied,
            scratch: Scratch::new(),
            engine_caches: Some(caches),
            bound_gate: state.bound_gate,
        })
    }
}

/// Reconciles the score table's empty-schedule validity mask with the
/// instance's current constraints: cells the rules open up are scored (or,
/// gated, seeded with their bound), cells they close are dropped. Returns
/// the number of cells scored eagerly.
fn reconcile_validity(
    table: &mut [Option<TableEntry>],
    engine: &mut ScoringEngine<'_>,
    gate: bool,
) -> usize {
    let inst = engine.instance();
    let num_e = inst.num_events();
    let probe = Schedule::new(inst);
    let mut rescored = 0;
    for t in 0..inst.num_intervals() {
        let interval = IntervalId::new(t);
        for e in 0..num_e {
            let event = EventId::new(e);
            let idx = t * num_e + e;
            let valid = probe.is_valid_assignment(inst, event, interval);
            match (&table[idx], valid) {
                (None, true) => {
                    engine.stats_mut().record_examined(1);
                    let cell = score_cell(engine, event, interval, gate);
                    rescored += usize::from(cell.exact);
                    table[idx] = Some(cell);
                }
                (Some(_), false) => table[idx] = None,
                _ => {}
            }
        }
    }
    rescored
}

/// Rescores one event's `|T|` table cells (the engine's scheduled mass must
/// be zero). Returns the number of cells scored eagerly.
///
/// With the bound-first gate on, the cells are instead *seeded* with the
/// engine's O(duration) separable upper bound and marked inexact
/// (`Stats::bound_skips` counts them) — the selection machinery already
/// refreshes inexact cells lazily, exactly when their bound could still win
/// a round, and writes virgin-span refreshes back as exact. A column the
/// schedule never competes for thus never pays a full sweep.
fn rescore_event_column(
    table: &mut [Option<TableEntry>],
    engine: &mut ScoringEngine<'_>,
    event: EventId,
    gate: bool,
) -> usize {
    let inst = engine.instance();
    let num_e = inst.num_events();
    let probe = Schedule::new(inst);
    let mut scored = 0;
    for t in 0..inst.num_intervals() {
        let interval = IntervalId::new(t);
        table[t * num_e + event.index()] = if probe.is_valid_assignment(inst, event, interval) {
            engine.stats_mut().record_examined(1);
            let cell = score_cell(engine, event, interval, gate);
            scored += usize::from(cell.exact);
            Some(cell)
        } else {
            None
        };
    }
    scored
}

/// Per-cell empty-schedule score contribution of the given users:
/// `Σ_u w(u)·σ(u,ti)·gain(C(u,ti), 0, µ(u,e))` over the intervals the
/// assignment spans, laid out like the score table (`[t·|E| + e]`). This is
/// the separable piece user churn adds to (or removes from) every cached
/// score — the basis of the `AddUsers`/`RetireUsers` bound adjustments.
///
/// `inst` and `comp_mass` must be shape-consistent with the users listed.
fn user_cell_contributions(inst: &Instance, comp_mass: &[f64], users: &[usize]) -> Vec<f64> {
    use ses_core::scoring::gain;
    let (num_e, num_t, num_u) = (inst.num_events(), inst.num_intervals(), inst.num_users());
    debug_assert_eq!(comp_mass.len(), num_t * num_u);
    let mut out = vec![0.0; num_e * num_t];
    for e in 0..num_e {
        let d = inst.events[e].duration as usize;
        for t in 0..num_t {
            if t + d > num_t {
                continue; // off-calendar span: the cell is None anyway
            }
            let mut total = 0.0;
            for ti in t..t + d {
                for &u in users {
                    let mu = inst.event_interest.value(e, u);
                    total += inst.user_weight(u)
                        * inst.activity.value(u, ti)
                        * gain(comp_mass[ti * num_u + u], 0.0, mu);
                }
            }
            out[t * num_e + e] = total;
        }
    }
    out
}

/// Inflation that turns a mathematically-equal bound adjustment into a
/// sound upper bound: it dominates the summation-order float error between
/// `cached ± contribution` and a fresh blocked-reduction score (relative
/// ~`|U|·ε`, so 1e-9 covers user counts into the millions).
fn bound_safety(score: f64) -> f64 {
    1e-9 * (score.abs() + 1.0)
}

/// Repairs the score table for one applied delta, per the invalidation
/// contract in the module docs. Returns the number of cells rescored
/// eagerly (bound adjustments are free). `adjust` carries the
/// [`user_cell_contributions`] for user-churn effects.
fn maintain_table(
    table: &mut Vec<Option<TableEntry>>,
    effect: &DeltaEffect,
    engine: &mut ScoringEngine<'_>,
    adjust: Option<Vec<f64>>,
    gate: bool,
) -> usize {
    let inst = engine.instance();
    let (num_e, num_t) = (inst.num_events(), inst.num_intervals());
    match effect {
        DeltaEffect::EventAdded(event) => {
            debug_assert_eq!(event.index(), num_e - 1);
            let old_e = num_e - 1;
            let mut out = Vec::with_capacity(num_e * num_t);
            for t in 0..num_t {
                out.extend_from_slice(&table[t * old_e..(t + 1) * old_e]);
                out.push(None);
            }
            *table = out;
            rescore_event_column(table, engine, *event, gate)
        }
        DeltaEffect::EventRemoved(event) => {
            let old_e = num_e + 1;
            let mut out = Vec::with_capacity(num_e * num_t);
            for t in 0..num_t {
                let row = &table[t * old_e..(t + 1) * old_e];
                out.extend_from_slice(&row[..event.index()]);
                out.extend_from_slice(&row[event.index() + 1..]);
            }
            *table = out;
            0
        }
        DeltaEffect::InterestShifted { event, .. } => {
            rescore_event_column(table, engine, *event, gate)
        }
        DeltaEffect::UsersAdded { .. } => {
            // Old users' contribution to an empty-schedule score is
            // untouched by a join, so cached + joined-users' contribution
            // (plus safety) upper-bounds the new score tightly.
            let adj = adjust.expect("user churn carries contribution adjustments");
            for (idx, cell) in table.iter_mut().enumerate() {
                if let Some(cell) = cell {
                    let bumped = cell.score + adj[idx];
                    cell.score = bumped + bound_safety(bumped);
                    cell.exact = false;
                }
            }
            0
        }
        DeltaEffect::UsersRetired { .. } => {
            // Leaving users take exactly their contribution with them.
            let adj = adjust.expect("user churn carries contribution adjustments");
            for (idx, cell) in table.iter_mut().enumerate() {
                if let Some(cell) = cell {
                    let lowered = cell.score - adj[idx];
                    cell.score = lowered + bound_safety(lowered);
                    cell.exact = false;
                }
            }
            0
        }
        DeltaEffect::ConstraintsChanged => {
            // Scores are constraint-independent: every cached score (and its
            // exactness) is still correct. The re-run of selection that
            // follows every apply enforces the new rules via check_assign.
            0
        }
    }
}

/// The repairer's Corollary-1 update pass for one interval (INC's walk),
/// with two twists: only *stale* entries are examined (an updated entry is
/// capped by `M[i]`, which Φ already covers, so passing over it is free),
/// and a refresh landing on a still-virgin span — no event placed on any
/// of its intervals yet — equals the empty-schedule score and is written
/// back to the score table as exact.
fn update_interval(
    sel: &mut Selection<'_, '_>,
    table: &mut [Option<TableEntry>],
    i: usize,
    mut phi: Option<Cand>,
) -> Option<Cand> {
    let interval = IntervalId::new(i);
    let num_e = sel.inst.num_events();

    // Interval-level skip: even the best stale bound cannot reach Φ.
    if let Some(p) = phi {
        sel.engine.stats_mut().record_examined(1);
        if sel.lists[i].front_stale_bound().is_none_or(|b| b < p.score) {
            return phi;
        }
    }

    let mut idx = 0;
    let mut any_refresh = false;
    while idx < sel.lists[i].entries.len() {
        let ent = sel.lists[i].entries[idx];
        if let Some(p) = phi {
            if ent.score < p.score {
                break; // sorted: everything below is below Φ too
            }
        }
        if ent.updated {
            idx += 1;
            continue;
        }
        sel.engine.stats_mut().record_examined(1);
        if !sel.schedule.is_valid_assignment(sel.inst, ent.event, interval) {
            sel.lists[i].entries.remove(idx);
            continue;
        }
        let fresh = sel.engine.assignment_score_update(ent.event, interval);
        {
            let e = &mut sel.lists[i].entries[idx];
            e.score = fresh;
            e.updated = true;
        }
        any_refresh = true;
        let d = sel.inst.events[ent.event.index()].duration as usize;
        if (i..i + d).all(|ti| sel.schedule.events_at(IntervalId::new(ti)).is_empty()) {
            table[i * num_e + ent.event.index()] = Some(TableEntry { score: fresh, exact: true });
        }
        phi = better(phi, Some(Cand::new(fresh, interval, ent.event)));
        idx += 1;
    }

    if any_refresh {
        sel.lists[i].sort();
    }
    sel.lists[i].fully_updated = sel.lists[i].entries.iter().all(|e| e.updated);
    sel.refresh_m(i);
    phi
}

/// Runs INC's selection seeded from the score table: exact cells start
/// updated, bound cells start stale and refresh lazily. Every round
/// selects the true greedy argmax under the canonical tie-break, so the
/// result equals a from-scratch INC run on the same instance.
fn run_selection(
    engine: &mut ScoringEngine<'_>,
    table: &mut [Option<TableEntry>],
    k: usize,
    scratch: &mut Scratch,
) -> Schedule {
    let num_t = engine.instance().num_intervals();
    let Scratch { lists, m, pending, .. } = scratch;
    // The table mixes exact and bound cells, so each list's own cells say
    // whether it is fully updated.
    let mut sel = Selection::seed(engine, table, false, lists, m);
    sel.select(k, |sel, mut phi| {
        // Visit intervals whose best stale bound could still reach Φ, in
        // descending bound order so Φ tightens as early as possible.
        // (Φ only grows during the pass, so pre-filtering with the seeded
        // Φ is sound; update_interval re-checks with the current Φ.)
        pending.clear();
        pending.extend(
            (0..num_t)
                .filter(|&i| !sel.lists[i].fully_updated)
                .filter_map(|i| sel.lists[i].front_stale_bound().map(|b| (b, i)))
                .filter(|&(b, _)| phi.is_none_or(|p| b >= p.score)),
        );
        // total_cmp instead of partial_cmp: scores are finite here, but a
        // comparator that cannot panic costs nothing and orders the same
        // way on every value the table can hold (scores are sums of
        // non-negative products, so the -0.0 < 0.0 distinction is moot).
        pending.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        for &(_, i) in pending.iter() {
            phi = update_interval(sel, table, i, phi);
        }
    });
    sel.schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scheduler;
    use crate::inc::Inc;
    use ses_core::model::{running_example, Event};
    use ses_core::LocationId;

    fn assert_matches_recompute(inst: &Instance, stream: &StreamScheduler) {
        let inc = Inc.run(inst, stream.k());
        assert_eq!(
            stream.schedule().assignments(),
            inc.schedule.assignments(),
            "repair diverged from full recompute"
        );
        assert_eq!(stream.utility().to_bits(), inc.utility.to_bits());
    }

    #[test]
    fn cold_build_matches_inc() {
        let inst = running_example();
        for k in 0..=4 {
            let stream = StreamScheduler::new(&inst, k, Threads::sequential());
            assert_matches_recompute(&inst, &stream);
        }
    }

    #[test]
    fn every_op_kind_repairs_to_recompute() {
        let mut inst = running_example();
        let mut stream = StreamScheduler::new(&inst, 3, Threads::sequential());
        let ops = vec![
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(3), 1.0).with_label("e5"),
                interest: vec![0.7, 0.1],
            },
            DeltaOp::ShiftInterest { event: EventId::new(0), user: 0, interest: 0.05 },
            DeltaOp::AddUsers {
                users: vec![ses_core::NewUser {
                    event_interest: vec![0.2, 0.9, 0.4, 0.1, 0.6],
                    competing_interest: vec![0.3, 0.3],
                    activity: vec![0.9, 0.4],
                    weight: None,
                }],
            },
            DeltaOp::RetireUsers { users: vec![1] },
            DeltaOp::RemoveEvent { event: EventId::new(1) },
        ];
        for op in &ops {
            stream.apply(&mut inst, op).unwrap();
            assert_matches_recompute(&inst, &stream);
            assert!(stream.schedule().verify_feasible(&inst).is_ok());
        }
        assert_eq!(stream.ops_applied(), 5);
    }

    /// A deterministic mid-size instance (16 events × 6 intervals × 40
    /// users): big enough that the `|E|·|T|` table dominates, which is the
    /// regime the strict examined-counter claim is about. (On the 4×2
    /// running example the lazy walk's bookkeeping can exceed the 8-cell
    /// table — the warm start targets real table sizes.)
    fn mid_instance() -> Instance {
        use ses_core::model::{ActivityMatrix, CompetingEvent, DenseInterest, InstanceBuilder};
        let (events, intervals, users, competing) = (16usize, 6usize, 40usize, 9usize);
        let mut b = InstanceBuilder::new();
        for e in 0..events {
            b.add_event(Event::new(LocationId::new(e % 7), 1.0 + (e % 3) as f64));
        }
        b.add_intervals(intervals);
        for c in 0..competing {
            b.add_competing(CompetingEvent::new(IntervalId::new(c % intervals)));
        }
        let val = |a: usize, b: usize| ((a * 31 + b * 17 + 7) % 97) as f64 / 97.0;
        b.event_interest(DenseInterest::from_fn(events, users, val))
            .competing_interest(DenseInterest::from_fn(competing, users, |a, b| val(a + 3, b)))
            .activity(ActivityMatrix::from_fn(users, intervals, |a, b| val(a, b + 11)))
            .resources(10.0)
            .build()
            .expect("mid instance must validate")
    }

    /// Single-op repairs must examine strictly fewer assignments than a
    /// full recompute of the same post-op instance — the point of the
    /// warm start. Every op kind is exercised.
    #[test]
    fn repair_examines_less_than_recompute() {
        let mut inst = mid_instance();
        let k = 8;
        let mut stream = StreamScheduler::new(&inst, k, Threads::sequential());
        let ops = vec![
            DeltaOp::ShiftInterest { event: EventId::new(1), user: 1, interest: 0.9 },
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(2), 1.0),
                interest: vec![0.6; 40],
            },
            DeltaOp::AddUsers {
                users: vec![
                    ses_core::NewUser {
                        event_interest: vec![0.5; 17], // after the AddEvent above
                        competing_interest: vec![0.1; 9],
                        activity: vec![0.5; 6],
                        weight: None,
                    };
                    2
                ],
            },
            DeltaOp::RetireUsers { users: vec![0, 17] },
            DeltaOp::RemoveEvent { event: EventId::new(4) },
        ];
        for op in &ops {
            let repaired = stream.apply(&mut inst, op).unwrap().stats.assignments_examined;
            let cold = StreamScheduler::new(&inst, k, Threads::sequential());
            let rebuilt = cold.last_repair().stats.assignments_examined;
            assert!(
                repaired < rebuilt,
                "{}: repair examined {repaired}, rebuild {rebuilt}",
                op.kind()
            );
            assert_matches_recompute(&inst, &stream);
        }
    }

    /// Refreshes on virgin spans flow back into the table: a second repair
    /// after user churn rescoring nothing still has exact cells to lean on.
    #[test]
    fn bounds_converge_back_to_exact() {
        let mut inst = running_example();
        let mut stream = StreamScheduler::new(&inst, 2, Threads::sequential());
        stream
            .apply(
                &mut inst,
                &DeltaOp::AddUsers {
                    users: vec![ses_core::NewUser {
                        event_interest: vec![0.8, 0.2, 0.1, 0.3],
                        competing_interest: vec![0.2, 0.5],
                        activity: vec![0.6, 0.6],
                        weight: None,
                    }],
                },
            )
            .unwrap();
        // The run refreshed at least the winning candidates on virgin spans.
        let exact_cells = stream.table.iter().flatten().filter(|c| c.exact).count();
        assert!(exact_cells > 0, "write-back must restore some exact cells");
        assert_matches_recompute(&inst, &stream);
    }

    /// Thread count must never change a repair's result — schedule,
    /// utility bits, or Stats.
    #[test]
    fn repairs_bit_identical_across_threads() {
        let (mut i1, mut i4) = (running_example(), running_example());
        let mut s1 = StreamScheduler::new(&i1, 3, Threads::sequential());
        let mut s4 = StreamScheduler::new(&i4, 3, Threads::new(4));
        assert_eq!(s1.last_repair().stats, s4.last_repair().stats);
        let ops = vec![
            DeltaOp::ShiftInterest { event: EventId::new(3), user: 0, interest: 0.2 },
            DeltaOp::RemoveEvent { event: EventId::new(0) },
        ];
        for op in &ops {
            let r1 = s1.apply(&mut i1, op).unwrap().clone();
            let r4 = s4.apply(&mut i4, op).unwrap().clone();
            assert_eq!(r1.stats, r4.stats);
            assert_eq!(s1.schedule().assignments(), s4.schedule().assignments());
            assert_eq!(s1.utility().to_bits(), s4.utility().to_bits());
        }
    }

    /// Constraint churn ops repair to exactly what a full recompute of the
    /// constrained instance produces, and every repaired schedule is
    /// feasible under the live rules.
    #[test]
    fn constraint_ops_repair_to_recompute() {
        let mut inst = mid_instance();
        let mut stream = StreamScheduler::new(&inst, 6, Threads::sequential());
        let ops = [
            DeltaOp::AddConflict { a: EventId::new(0), b: EventId::new(5) },
            DeltaOp::AddPrecedence { before: EventId::new(2), after: EventId::new(9) },
            DeltaOp::SetVenueCapacity { location: LocationId::new(0), capacity: Some(1) },
            DeltaOp::RemoveEvent { event: EventId::new(5) }, // drops the conflict
            DeltaOp::RemoveConflict { a: EventId::new(0), b: EventId::new(5) },
        ];
        for (i, op) in ops.iter().enumerate() {
            let result = stream.apply(&mut inst, op);
            if i == 4 {
                // The conflict died with the removed event; retracting it
                // again must fail atomically.
                assert_eq!(result.unwrap_err(), DeltaError::UnknownConstraint);
                continue;
            }
            result.unwrap();
            assert_matches_recompute(&inst, &stream);
            assert!(stream.schedule().verify_feasible(&inst).is_ok());
        }
        assert!(inst.constraints.has_precedence(EventId::new(2), EventId::new(8)));
    }

    /// The warm `set_constraints` path must land on the same schedule,
    /// utility bits, and table validity mask as building the constrained
    /// instance cold — in both directions (constrain, then relax).
    #[test]
    fn set_constraints_matches_cold_build() {
        use ses_core::constraints::ConstraintSet;
        let inst = mid_instance();
        let mut live = inst.clone();
        let mut stream = StreamScheduler::new(&live, 6, Threads::sequential());

        let mut cs = ConstraintSet::new();
        cs.set_venue_capacity(LocationId::new(1), 1);
        cs.add_conflict(EventId::new(3), EventId::new(10));
        cs.add_precedence(EventId::new(0), EventId::new(1));
        stream.set_constraints(&mut live, cs.clone()).unwrap();
        assert_matches_recompute(&live, &stream);
        assert!(stream.schedule().verify_feasible(&live).is_ok());

        // Relaxing back to empty restores the unconstrained result.
        stream.set_constraints(&mut live, ConstraintSet::new()).unwrap();
        let cold = StreamScheduler::new(&inst, 6, Threads::sequential());
        assert_eq!(stream.schedule().assignments(), cold.schedule().assignments());
        assert_eq!(stream.utility().to_bits(), cold.utility().to_bits());

        // An invalid set is rejected and nothing changes.
        let before = stream.schedule().assignments().to_vec();
        let mut bad = ConstraintSet::new();
        bad.add_conflict(EventId::new(0), EventId::new(99));
        assert!(stream.set_constraints(&mut live, bad).is_err());
        assert_eq!(stream.schedule().assignments(), &before[..]);
    }

    /// The duration extension: spanning events keep the virgin-span
    /// write-back and the repair equivalence honest.
    #[test]
    fn duration_events_supported() {
        let mut inst = running_example();
        let mut stream = StreamScheduler::new(&inst, 3, Threads::sequential());
        stream
            .apply(
                &mut inst,
                &DeltaOp::AddEvent {
                    event: Event::new(LocationId::new(4), 1.0).with_duration(2),
                    interest: vec![0.9, 0.9],
                },
            )
            .unwrap();
        assert_matches_recompute(&inst, &stream);
        stream
            .apply(
                &mut inst,
                &DeltaOp::ShiftInterest { event: EventId::new(4), user: 1, interest: 0.1 },
            )
            .unwrap();
        assert_matches_recompute(&inst, &stream);
    }

    /// A batched repair must land on exactly the op-at-a-time result:
    /// same assignments, same utility bits, same live instance.
    #[test]
    fn apply_batch_matches_op_at_a_time() {
        let inst = mid_instance();
        let ops = vec![
            DeltaOp::ShiftInterest { event: EventId::new(1), user: 1, interest: 0.9 },
            DeltaOp::ShiftInterest { event: EventId::new(1), user: 1, interest: 0.2 },
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(2), 1.0),
                interest: vec![0.6; 40],
            },
            DeltaOp::RetireUsers { users: vec![0, 17] },
            DeltaOp::AddConflict { a: EventId::new(0), b: EventId::new(5) },
        ];
        let (mut batched_inst, mut serial_inst) = (inst.clone(), inst);
        let mut batched = StreamScheduler::new(&batched_inst, 8, Threads::sequential());
        let mut serial = StreamScheduler::new(&serial_inst, 8, Threads::sequential());
        batched.apply_batch(&mut batched_inst, &ops).unwrap();
        for op in &ops {
            serial.apply(&mut serial_inst, op).unwrap();
        }
        assert_eq!(batched_inst, serial_inst);
        assert_eq!(batched.schedule().assignments(), serial.schedule().assignments());
        assert_eq!(batched.utility().to_bits(), serial.utility().to_bits());
        assert_eq!(batched.ops_applied(), 5);
        assert_matches_recompute(&batched_inst, &batched);
    }

    /// The windowed entry point: a redundant window coalesces down and the
    /// repair still matches a recompute of the post-window instance.
    #[test]
    fn repair_batch_coalesces_and_matches_recompute() {
        let inst = mid_instance();
        let mut live = inst.clone();
        let mut stream = StreamScheduler::new(&live, 8, Threads::sequential());
        let window = vec![
            DeltaOp::ShiftInterest { event: EventId::new(3), user: 2, interest: 0.8 },
            DeltaOp::ShiftInterest { event: EventId::new(3), user: 2, interest: 0.3 },
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(1), 1.0),
                interest: vec![0.4; 40],
            },
            DeltaOp::RemoveEvent { event: EventId::new(16) }, // cancels the add
            DeltaOp::ShiftInterest { event: EventId::new(7), user: 5, interest: 0.55 },
        ];
        stream.repair_batch(&mut live, &window).unwrap();
        // Three redundant ops collapsed: only the two net drifts applied.
        assert_eq!(stream.ops_applied(), 2);
        assert_eq!(live, delta::materialize(&inst, &window).unwrap());
        assert_matches_recompute(&live, &stream);

        // An empty window is one (cheap) repair that changes nothing.
        let before = stream.schedule().assignments().to_vec();
        stream.repair_batch(&mut live, &[]).unwrap();
        assert_eq!(stream.schedule().assignments(), &before[..]);
        assert_eq!(stream.ops_applied(), 2);
    }

    /// A mid-batch rejection keeps the applied prefix and still runs
    /// selection, so the scheduler stays consistent with its instance.
    #[test]
    fn apply_batch_failure_keeps_prefix_consistent() {
        let inst = mid_instance();
        let mut live = inst.clone();
        let mut stream = StreamScheduler::new(&live, 8, Threads::sequential());
        let ops = vec![
            DeltaOp::ShiftInterest { event: EventId::new(2), user: 3, interest: 0.9 },
            DeltaOp::RemoveEvent { event: EventId::new(99) }, // rejected
            DeltaOp::ShiftInterest { event: EventId::new(4), user: 1, interest: 0.1 },
        ];
        let err = stream.apply_batch(&mut live, &ops).unwrap_err();
        assert_eq!(err.op_index, 1);
        assert_eq!(stream.ops_applied(), 1);
        assert_eq!(live, delta::materialize(&inst, &ops[..1]).unwrap());
        assert_matches_recompute(&live, &stream);

        // A rejected window applies nothing at all (window-atomic).
        let before = live.clone();
        assert!(stream.repair_batch(&mut live, &ops).is_err());
        assert_eq!(live, before);
        assert_eq!(stream.ops_applied(), 1);
    }

    #[test]
    fn invalid_op_leaves_state_untouched() {
        let mut inst = running_example();
        let mut stream = StreamScheduler::new(&inst, 3, Threads::sequential());
        let before_sched = stream.schedule().clone();
        let before_utility = stream.utility();
        let err = stream.apply(
            &mut inst,
            &DeltaOp::ShiftInterest { event: EventId::new(9), user: 0, interest: 0.5 },
        );
        assert!(err.is_err());
        assert_eq!(stream.schedule(), &before_sched);
        assert_eq!(stream.utility(), before_utility);
        assert_eq!(stream.ops_applied(), 0);
    }
}

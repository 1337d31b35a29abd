//! Shared scaffolding for all SES schedulers: the [`Scheduler`] trait, the
//! [`ScheduleResult`] record, per-run execution options ([`RunConfig`]),
//! the reusable allocation pool ([`Scratch`]), the scoring pass that seeds
//! every greedy scheduler, candidate ordering, and per-interval candidate
//! lists.

use serde::{Deserialize, Serialize};
use ses_core::model::Instance;
use ses_core::parallel::{par_chunks_mut, Threads};
use ses_core::schedule::Schedule;
use ses_core::scoring::utility::total_utility;
use ses_core::scoring::{EngineProfile, ScoringEngine};
use ses_core::stats::Stats;
use ses_core::{EventId, IntervalId};
use std::time::{Duration, Instant};

/// Everything a scheduling run produces: the schedule, its exact utility
/// Ω(S) (recomputed from scratch by the independent evaluator), the
/// instrumentation counters, and the wall-clock duration.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Which algorithm produced this result (a canonical name from
    /// [`known_algorithm_names`] — `&'static str` so packing a result
    /// allocates nothing for the label).
    pub algorithm: &'static str,
    /// The requested number of assignments `k`.
    pub k: usize,
    /// The feasible schedule found (`|S| ≤ k`; `< k` only when the instance
    /// cannot feasibly host `k` events).
    pub schedule: Schedule,
    /// Total utility Ω(S) per Eq. 3, from the independent evaluator.
    pub utility: f64,
    /// Instrumentation counters (score computations, user ops, examined).
    pub stats: Stats,
    /// Wall-clock duration of the run. The clock stops before Ω(S) is
    /// evaluated, so `utility`'s cost is not included.
    pub elapsed: Duration,
    /// Per-phase engine timing, when the run opted into
    /// [`RunConfig::profile`].
    pub profile: Option<EngineProfile>,
}

/// Every canonical display name a [`ScheduleResult`] can carry — the
/// closed set deserialization resolves against so the field can stay a
/// `&'static str`.
pub fn known_algorithm_names() -> &'static [&'static str] {
    &["ALG", "INC", "HOR", "HOR-I", "TOP", "RAND", "EXACT", "LAZY", "HOR+LS", "REFINED", "PROFIT"]
}

/// Resolves a serialized algorithm label back to its canonical
/// `&'static str` (exact match only — aliases are a parsing concern, see
/// [`SchedulerKind::parse`](crate::SchedulerKind::parse)).
pub fn static_algorithm_name(name: &str) -> Option<&'static str> {
    known_algorithm_names().iter().find(|&&n| n == name).copied()
}

// Hand-written (de)serialization: the derive cannot produce a
// `&'static str` field, so `algorithm` round-trips through the
// [`static_algorithm_name`] table instead. The value layout matches what
// the derive emitted when the field was a `String`, so previously
// serialized results still load.
impl Serialize for ScheduleResult {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("algorithm".to_string(), self.algorithm.to_value()),
            ("k".to_string(), self.k.to_value()),
            ("schedule".to_string(), self.schedule.to_value()),
            ("utility".to_string(), self.utility.to_value()),
            ("stats".to_string(), self.stats.to_value()),
            ("elapsed".to_string(), self.elapsed.to_value()),
            ("profile".to_string(), self.profile.to_value()),
        ])
    }
}

impl Deserialize for ScheduleResult {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj =
            v.as_object().ok_or_else(|| serde::Error::expected("object", "ScheduleResult"))?;
        fn field<'a>(
            obj: &'a [(String, serde::Value)],
            name: &str,
        ) -> Result<&'a serde::Value, serde::Error> {
            serde::__get(obj, name)
                .ok_or_else(|| serde::Error::missing_field(name, "ScheduleResult"))
        }
        let label = String::from_value(field(obj, "algorithm")?)?;
        let algorithm = static_algorithm_name(&label)
            .ok_or_else(|| serde::Error::unknown_variant(&label, "algorithm name"))?;
        Ok(Self {
            algorithm,
            k: usize::from_value(field(obj, "k")?)?,
            schedule: Schedule::from_value(field(obj, "schedule")?)?,
            utility: f64::from_value(field(obj, "utility")?)?,
            stats: Stats::from_value(field(obj, "stats")?)?,
            elapsed: Duration::from_value(field(obj, "elapsed")?)?,
            profile: match serde::__get(obj, "profile") {
                None => None,
                Some(p) => Option::<EngineProfile>::from_value(p)?,
            },
        })
    }
}

/// Per-run execution options, threaded from the CLI / harness down to the
/// engine. `Copy` so schedulers pass it freely.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Worker threads (bit-identical results for every count).
    pub threads: Threads,
    /// Opt-in bound-first gate: before refreshing a stale candidate,
    /// consult the engine's O(duration) separable upper bound and skip the
    /// full user sweep when it cannot beat the current Φ. **Never changes
    /// the schedule or utility** (the gate is selection-neutral; see
    /// DESIGN.md §9) — only the work counters, which is why it is opt-in:
    /// the default keeps `Stats` comparable with the paper's accounting and
    /// the committed golden traces.
    pub bound_gate: bool,
    /// Opt-in per-phase (setup/score/apply) wall-clock attribution,
    /// surfaced as [`ScheduleResult::profile`] (`ses run --profile`).
    pub profile: bool,
}

impl RunConfig {
    /// Options for a plain run at the given thread count (gate and
    /// profiling off — the reference configuration every differential test
    /// pins).
    pub fn threaded(threads: Threads) -> Self {
        Self { threads, bound_gate: false, profile: false }
    }

    /// Toggles the bound-first gate.
    pub fn with_bound_gate(mut self, on: bool) -> Self {
        self.bound_gate = on;
        self
    }

    /// Toggles per-phase profiling.
    pub fn with_profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::threaded(Threads::default())
    }
}

/// A scheduling algorithm for the SES problem.
pub trait Scheduler {
    /// Short display name ("ALG", "INC", …) matching the paper.
    fn name(&self) -> &'static str;

    /// Computes a feasible schedule of (up to) `k` assignments with the
    /// ambient thread resolution ([`Threads::from_env`]: sequential unless
    /// `SES_THREADS` is set).
    fn run(&self, inst: &Instance, k: usize) -> ScheduleResult {
        self.run_threaded(inst, k, Threads::default())
    }

    /// Same computation with an explicit worker-thread count. Every
    /// implementation is **bit-identical** across thread counts — same
    /// schedule, same utility bits, same [`Stats`] — which
    /// `tests/parallel_equivalence.rs` enforces differentially.
    fn run_threaded(&self, inst: &Instance, k: usize, threads: Threads) -> ScheduleResult {
        self.run_configured(inst, k, RunConfig::threaded(threads), &mut Scratch::default())
    }

    /// Full-control entry point: explicit [`RunConfig`] plus a caller-owned
    /// [`Scratch`]. Re-running with the same scratch makes the scheduling
    /// loop allocation-free across runs (candidate tables, per-interval
    /// lists, and heaps are cleared and reused, never re-allocated) — the
    /// repeated-run mode of the stream scheduler, the sweep harness, and
    /// the benches.
    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        scratch: &mut Scratch,
    ) -> ScheduleResult;
}

/// Times `f`, evaluates the utility of the returned schedule with the
/// independent evaluator, and packs a [`ScheduleResult`]. The clock stops
/// when `f` returns, before Ω(S) is evaluated. Schedulers that score go
/// through [`run_with_engine`]; RAND and the local-search wrapper call this
/// directly.
pub(crate) fn timed_result(
    name: &'static str,
    inst: &Instance,
    k: usize,
    f: impl FnOnce() -> (Schedule, Stats, Option<EngineProfile>),
) -> ScheduleResult {
    let start = Instant::now();
    let (schedule, stats, profile) = f();
    let elapsed = start.elapsed();
    let utility = total_utility(inst, &schedule);
    ScheduleResult { algorithm: name, k, schedule, utility, stats, elapsed, profile }
}

/// The one run path of every scoring scheduler: starts the clock, builds
/// the engine at `cfg.threads` (profiling it when `cfg.profile` is set),
/// runs the selection `body` on it, and packs the engine's [`Stats`] and
/// profile, the independently evaluated Ω(S) and the elapsed time into a
/// [`ScheduleResult`]. The elapsed time covers the engine build and the
/// selection and stops before Ω(S) is evaluated.
pub(crate) fn run_with_engine<'a>(
    name: &'static str,
    inst: &'a Instance,
    k: usize,
    cfg: RunConfig,
    body: impl FnOnce(&mut ScoringEngine<'a>) -> Schedule,
) -> ScheduleResult {
    timed_result(name, inst, k, || {
        let mut engine = ScoringEngine::with_threads(inst, cfg.threads);
        if cfg.profile {
            engine.enable_profiling();
        }
        let schedule = body(&mut engine);
        (schedule, *engine.stats(), engine.take_profile())
    })
}

/// One assignment of a per-interval candidate list: the shape INC, HOR-I,
/// and the stream repairer all walk (score current iff `updated`, otherwise
/// a monotonicity upper bound).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// The candidate event.
    pub event: EventId,
    /// Current score if `updated`, otherwise an upper bound (the score as
    /// of the last refresh).
    pub score: f64,
    /// Whether `score` is current.
    pub updated: bool,
}

/// A per-interval assignment list `L_i`, sorted descending by stored score
/// (ties: ascending event id — the canonical [`Cand`] order restricted to
/// one interval).
#[derive(Debug, Default)]
pub(crate) struct IntervalList {
    /// The (possibly stale) candidates of this interval.
    pub entries: Vec<Entry>,
    /// True iff every surviving entry is updated (lets update passes skip
    /// the interval without peeking).
    pub fully_updated: bool,
}

impl IntervalList {
    /// Restores the canonical descending-score order after refreshes.
    pub fn sort(&mut self) {
        self.entries.sort_unstable_by(|a, b| {
            b.score.partial_cmp(&a.score).expect("scores are finite").then(a.event.cmp(&b.event))
        });
    }

    /// The best stale bound of the interval (`None` when every entry is
    /// updated).
    pub fn front_stale_bound(&self) -> Option<f64> {
        self.entries.iter().find(|e| !e.updated).map(|e| e.score)
    }
}

/// A lazy-greedy heap entry: a candidate plus the epoch snapshot its score
/// was computed at. Max-heap order = the canonical [`Cand::beats`] order.
/// `FORCE_REFRESH` marks an entry whose stored score was *lowered to a
/// bound* by the gate — it must be refreshed before it can be selected.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapEntry {
    /// The candidate (score possibly stale or bound-tightened).
    pub cand: Cand,
    /// Epoch the score was computed at; [`HeapEntry::FORCE_REFRESH`] forces
    /// a refresh on pop.
    pub epoch: u64,
}

impl HeapEntry {
    /// Sentinel epoch that can never equal a real span epoch.
    pub const FORCE_REFRESH: u64 = u64::MAX;
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cand == other.cand
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.cand.beats(&other.cand) {
            std::cmp::Ordering::Greater
        } else if other.cand.beats(&self.cand) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        }
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable allocation pool for the scheduling loops. All buffers are
/// cleared (capacity kept) by the per-run reset helpers, so a scratch
/// shared across runs makes every scheduler's main loop allocation-free
/// after its first run at a given instance shape. A scratch carries no
/// result state between runs — only capacity.
#[derive(Debug, Default)]
pub struct Scratch {
    /// The flat `|T|·|E|` table the scoring pass ([`score_table`]) fills:
    /// ALG's live score table, and the seed of every other greedy scheduler.
    pub(crate) table: Vec<Option<TableEntry>>,
    /// Per-interval candidate lists (INC / HOR-I / STREAM).
    pub(crate) lists: Vec<IntervalList>,
    /// Per-interval top-candidate table `M`.
    pub(crate) m: Vec<Option<Cand>>,
    /// Per-interval sorted `(score, event)` rows (HOR).
    pub(crate) rows: Vec<Vec<(f64, EventId)>>,
    /// HOR's per-interval fallback cursors.
    pub(crate) cursors: Vec<usize>,
    /// LAZY's heap backing store.
    pub(crate) heap: Vec<HeapEntry>,
    /// Stale-interval visit order buffer (INC / STREAM).
    pub(crate) pending: Vec<(f64, usize)>,
}

impl Scratch {
    /// A fresh, empty scratch (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Resets `lists` and `m` to `inst`'s intervals (keeping capacity) and
/// fills each list with its row of the `[t·|E| + e]` table, sorted: exact
/// cells start updated, bound cells stale. `fully_updated` is the caller's
/// to set.
pub(crate) fn seed_interval_lists(
    inst: &Instance,
    table: &[Option<TableEntry>],
    lists: &mut Vec<IntervalList>,
    m: &mut Vec<Option<Cand>>,
) {
    let (num_e, num_t) = (inst.num_events(), inst.num_intervals());
    lists.truncate(num_t);
    lists.resize_with(num_t, IntervalList::default);
    m.clear();
    m.resize(num_t, None);
    for (t, list) in lists.iter_mut().enumerate() {
        list.entries.clear();
        list.entries.extend((0..num_e).filter_map(|e| {
            table[t * num_e + e].map(|c| Entry {
                event: EventId::new(e),
                score: c.score,
                updated: c.exact,
            })
        }));
        list.sort();
    }
}

/// One cell of an empty-schedule score table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TableEntry {
    /// The assignment score on the empty schedule — exact, or an upper
    /// bound.
    pub score: f64,
    /// Whether `score` is the exact blocked-reduction value.
    pub exact: bool,
}

/// Scores one cell on `engine`'s current masses. Gate off: the full
/// `assignment_score` sweep, exact. Gate on: the engine's O(duration)
/// separable upper bound, inexact, counted in `Stats::bound_skips` — every
/// consumer refreshes inexact cells lazily, exactly when the bound could
/// still win.
pub(crate) fn score_cell(
    engine: &mut ScoringEngine<'_>,
    event: EventId,
    interval: IntervalId,
    gate: bool,
) -> TableEntry {
    if gate {
        engine.stats_mut().record_bound_skip();
        TableEntry { score: engine.score_bound(event, interval), exact: false }
    } else {
        TableEntry { score: engine.assignment_score(event, interval), exact: true }
    }
}

/// The scoring pass every greedy scheduler starts from (Algorithm 1's and
/// Algorithm 3's "generate all valid assignments"): refills `table` as the
/// flat `[t·|E| + e]` table of every assignment valid on the empty
/// schedule, scored per [`score_cell`]; invalid cells are `None`.
///
/// At `threads > 1` with at least two intervals the rows fan out across
/// the pool, each cell through the stat-free `peek_score`/`score_bound`
/// (the pool does not nest; both are bit-identical to their sequential
/// counterparts), and the `Stats` the sequential pass would record are
/// replayed afterwards. Nothing downstream can tell the two paths apart.
pub(crate) fn score_table(
    engine: &mut ScoringEngine<'_>,
    gate: bool,
    table: &mut Vec<Option<TableEntry>>,
) {
    let inst = engine.instance();
    let (num_e, num_t) = (inst.num_events(), inst.num_intervals());
    let threads = engine.threads();
    let probe = Schedule::new(inst);
    table.clear();
    table.resize(num_e * num_t, None);
    if threads.is_sequential() || num_t < 2 {
        for (idx, slot) in table.iter_mut().enumerate() {
            let (event, interval) = (EventId::new(idx % num_e), IntervalId::new(idx / num_e));
            if probe.is_valid_assignment(inst, event, interval) {
                *slot = Some(score_cell(engine, event, interval, gate));
            }
        }
        return;
    }
    let gen_start = Instant::now();
    {
        let eng = &*engine;
        par_chunks_mut(threads, table, num_e, |t, row| {
            let interval = IntervalId::new(t);
            for (e, slot) in row.iter_mut().enumerate() {
                let event = EventId::new(e);
                if probe.is_valid_assignment(inst, event, interval) {
                    *slot = Some(if gate {
                        TableEntry { score: eng.score_bound(event, interval), exact: false }
                    } else {
                        TableEntry { score: eng.peek_score(event, interval), exact: true }
                    });
                }
            }
        });
    }
    let gen_ns = gen_start.elapsed().as_nanos() as u64;
    let mut generated = 0u64;
    for (idx, cell) in table.iter().enumerate() {
        match cell {
            Some(c) if c.exact => {
                let cost = engine.score_cost(EventId::new(idx % num_e));
                engine.stats_mut().record_score(cost);
                generated += 1;
            }
            Some(_) => engine.stats_mut().record_bound_skip(),
            None => {}
        }
    }
    if !gate {
        engine.add_scoring_time(gen_ns, generated);
    }
}

/// A candidate assignment with its (possibly stale) score, ordered by the
/// canonical tie-break used by **every** algorithm in this crate: larger
/// score first, then smaller interval id, then smaller event id.
///
/// A single deterministic order is what makes Proposition 3 (INC ≡ ALG) and
/// Proposition 6 (HOR-I ≡ HOR) hold as *exact schedule equality*, testable
/// without tolerance fudging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cand {
    /// Assignment score (Eq. 4) — current or an upper bound, per context.
    pub score: f64,
    /// Interval of the assignment.
    pub interval: IntervalId,
    /// Event of the assignment.
    pub event: EventId,
}

impl Cand {
    /// Creates a candidate.
    #[inline]
    pub fn new(score: f64, interval: IntervalId, event: EventId) -> Self {
        Self { score, interval, event }
    }

    /// Canonical strict ordering (see type docs).
    #[inline]
    pub fn beats(&self, other: &Cand) -> bool {
        if self.score != other.score {
            return self.score > other.score;
        }
        (self.interval, self.event) < (other.interval, other.event)
    }
}

/// Returns the better of two optional candidates under [`Cand::beats`]
/// (the paper's `getBetterAssgn`).
#[inline]
pub fn better(a: Option<Cand>, b: Option<Cand>) -> Option<Cand> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.beats(&y) { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// The largest event duration in the instance (1 in the paper's model).
pub(crate) fn max_duration(inst: &Instance) -> usize {
    inst.events.iter().map(|e| e.duration as usize).max().unwrap_or(1)
}

/// The window of *starting* intervals whose assignments may have gone stale
/// after placing `event` at `t`: any assignment whose own span intersects
/// the placed span. With the paper's duration-1 model this is exactly `{t}`.
pub(crate) fn stale_window(
    inst: &Instance,
    max_dur: usize,
    event: EventId,
    t: IntervalId,
) -> std::ops::Range<usize> {
    let span_end = t.index() + inst.events[event.index()].duration as usize;
    let lo = (t.index() + 1).saturating_sub(max_dur);
    lo..span_end.min(inst.num_intervals())
}

/// Selects the best candidate from an iterator under the canonical order.
pub fn best_candidate(iter: impl Iterator<Item = Cand>) -> Option<Cand> {
    let mut best: Option<Cand> = None;
    for c in iter {
        best = better(best, Some(c));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(score: f64, t: usize, e: usize) -> Cand {
        Cand::new(score, IntervalId::new(t), EventId::new(e))
    }

    #[test]
    fn higher_score_wins() {
        assert!(c(0.9, 5, 5).beats(&c(0.8, 0, 0)));
        assert!(!c(0.8, 0, 0).beats(&c(0.9, 5, 5)));
    }

    #[test]
    fn ties_break_on_interval_then_event() {
        assert!(c(0.5, 0, 9).beats(&c(0.5, 1, 0)));
        assert!(c(0.5, 1, 0).beats(&c(0.5, 1, 1)));
        assert!(!c(0.5, 1, 1).beats(&c(0.5, 1, 0)));
    }

    #[test]
    fn better_handles_none() {
        assert_eq!(better(None, None), None);
        let x = c(0.5, 0, 0);
        assert_eq!(better(Some(x), None), Some(x));
        assert_eq!(better(None, Some(x)), Some(x));
    }

    #[test]
    fn best_candidate_is_deterministic() {
        let cands = vec![c(0.5, 1, 0), c(0.5, 0, 2), c(0.4, 0, 0), c(0.5, 0, 1)];
        // 0.5 ties: interval 0 beats 1; event 1 beats 2.
        assert_eq!(best_candidate(cands.into_iter()), Some(c(0.5, 0, 1)));
    }

    #[test]
    fn beats_is_asymmetric_for_distinct() {
        let a = c(0.3, 0, 0);
        let b = c(0.3, 0, 1);
        assert!(a.beats(&b) ^ b.beats(&a));
        // A candidate never beats itself.
        assert!(!a.beats(&a));
    }
}

//! `SesService` — the long-lived session API over a live instance.
//!
//! Every earlier entry point (CLI subcommands, experiment harness, benches,
//! tests) re-plumbed `Instance` + scheduler + [`RunConfig`] + [`Scratch`]
//! by hand, and nothing could keep warm state — the stream repairer's
//! caches, the engine tables, the scratch buffers — alive across requests.
//! [`SesService`] owns all of that behind one typed request surface:
//!
//! * the live [`Instance`] (mutated in place by [`Request::ApplyOps`]) —
//!   always owned here, cold or warm;
//! * name resolution through [`SchedulerKind::resolve`] (the one
//!   scheduler table, [`SchedulerKind::ALL`]);
//! * one persistent [`Scratch`] pool shared by every scheduler (a session
//!   runs one request at a time), so repeated `Schedule` requests re-run
//!   allocation-free;
//! * the stream repairer's warm caches ([`StreamScheduler`]): once a
//!   `Repair` request arms it, every subsequent `ApplyOps` repairs the
//!   schedule incrementally instead of recomputing. The repairer borrows
//!   the service's instance per call; it never holds one of its own.
//!
//! ## Bit-identity contract
//!
//! The service is plumbing, never policy: a `Schedule` request returns the
//! exact same schedule, utility **bits**, and [`Stats`] as a cold
//! [`Scheduler::run_configured`] call with the same [`RunConfig`], and a
//! `Repair`/`ApplyOps` sequence matches a hand-driven [`StreamScheduler`]
//! op for op (`tests/service_equivalence.rs` proves both differentially,
//! across thread counts, with warm state reused over hundreds of
//! requests). The bound-first gate and profiling stay opt-in flags on the
//! request, per the repo's invariants.
//!
//! ## Wire protocol
//!
//! [`wire`] defines the versioned JSON-lines codec (`{"v":1,...}`
//! envelopes) that `ses serve` speaks over stdin/stdout; wire responses
//! carry only deterministic fields (no wall-clock), so a seeded request
//! script always produces a byte-identical response log — the committed
//! golden transcript leans on this.
//!
//! [`Scheduler::run_configured`]: crate::common::Scheduler::run_configured
//! [`SchedulerKind::resolve`]: crate::SchedulerKind::resolve
//! [`SchedulerKind::ALL`]: crate::SchedulerKind::ALL

pub mod durable;
pub mod net;
pub mod wire;

pub use durable::{DurableService, Inspection, RecoveryReport};
pub use net::{NetConfig, SessionBackend, SessionManager};

use crate::common::{RunConfig, ScheduleResult, Scheduler, Scratch};
use crate::stream::{replay_schedule, RepairReport, StreamScheduler, StreamState};
use serde::{Deserialize, Serialize, Value};
use ses_core::delta::{self, DeltaOp};
use ses_core::error::ServiceError;
use ses_core::model::Instance;
use ses_core::parallel::Threads;
use ses_core::schedule::{Assignment, Schedule};
use ses_core::stats::Stats;
use ses_core::{EventId, IntervalId};

/// The largest `threads` a `Schedule` or `Repair` request may ask for;
/// larger counts are rejected as invalid arguments before any state
/// changes. A fixed constant, not the machine's width, so a logged request
/// replays to the same answer on every machine. The worker pool keeps one
/// pool per distinct count for the life of the process, so the cap also
/// bounds how many pools requests can create.
pub const MAX_REQUEST_THREADS: usize = 64;

/// One request against a [`SesService`] — the typed currency of the wire
/// protocol and of [`SesService::handle`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Run one named scheduler on the current instance.
    Schedule {
        /// Scheduler name (case-insensitive, aliases accepted: `hor-i`,
        /// `hori`, `random`, …).
        algorithm: String,
        /// Number of assignments to select.
        k: usize,
        /// Worker threads (`0` = machine width, at most
        /// [`MAX_REQUEST_THREADS`]); omitted = the service's default.
        /// Bit-identical results for every count.
        #[serde(default)]
        threads: Option<usize>,
        /// Opt-in bound-first gate (selection-neutral; counters only).
        #[serde(default)]
        gate: bool,
        /// Accepted and ignored: the reply carries no profile, so the
        /// service always runs with profiling off. Kept because v1 lines
        /// and logged records carry it.
        #[serde(default)]
        profile: bool,
        /// Optional scenario-constraint block, installed on the live
        /// instance (warm repairer included) before the run and kept for
        /// subsequent requests. `None` leaves the current constraints
        /// untouched — pre-constraint (v1) request lines parse unchanged.
        #[serde(default)]
        constraints: Option<ses_core::constraints::ConstraintSet>,
    },
    /// Apply a batch of delta ops to the live instance, in order, each op
    /// atomically. While the repairer is armed (after a `Repair`), every
    /// op also incrementally repairs the maintained schedule.
    ApplyOps {
        /// The ops, applied front to back.
        ops: Vec<DeltaOp>,
        /// Windowed ingestion: chunk the ops into windows of this size,
        /// coalesce each window to its canonical minimal batch
        /// ([`ses_core::delta::coalesce`]), and pay **one** repair per
        /// window flush instead of one per op. Omitted (`None`) keeps the
        /// op-at-a-time v1 behavior — and v1 request lines parse
        /// unchanged. Note the failure contract shifts with it: a
        /// rejected op voids its whole window (window-atomic) instead of
        /// only its own suffix.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        window: Option<usize>,
    },
    /// Arm (or re-use) the incremental repairer at `(k, threads, gate)`
    /// and report the maintained schedule. A matching warm repairer is
    /// reused as-is; a mismatch pays one cold rebuild.
    Repair {
        /// Schedule size the repairer maintains.
        k: usize,
        /// Worker threads (`0` = machine width, at most
        /// [`MAX_REQUEST_THREADS`]); omitted = service default.
        #[serde(default)]
        threads: Option<usize>,
        /// Opt-in bound-first gate for the repair's lazy refreshes.
        #[serde(default)]
        gate: bool,
    },
    /// Inspect one entity of the live instance / current schedule.
    Query {
        /// What to look up.
        query: Query,
    },
    /// Report the service's full state summary.
    Snapshot,
    /// Drop all warm state (repairer caches, scratch pool, last
    /// schedule). The live instance — including every applied op — is
    /// kept.
    Reset,
    /// Fold the write-ahead log into a fresh on-disk snapshot generation
    /// and retire old generations (compaction). Only served by a durable
    /// session (`ses serve --state-dir`); plain sessions answer a typed
    /// error. Appended after v1 — pre-durability transcripts parse and
    /// answer byte-identically.
    Persist,
    /// Drop the in-memory state and reload it from disk (newest valid
    /// snapshot + log replay) — the recovery path, on demand. Durable
    /// sessions only, like `Persist`.
    Restore,
    /// Create a new named session on a multi-session server (`ses serve
    /// --listen`). The session starts from a fresh copy of the server's
    /// boot instance; with `--state-dir` it is durable under
    /// `<state-dir>/<name>`. Single-session (stdio) serve answers a typed
    /// error. Appended after v1 — committed transcripts parse and answer
    /// byte-identically.
    OpenSession {
        /// The new session's name (`[A-Za-z0-9_-]`, at most 64 chars).
        session: String,
    },
    /// Retire a named session: it stops resolving for new requests, its
    /// state is dropped (a durable session's on-disk state stays and
    /// reopens on the next `OpenSession`/boot). Multi-session servers
    /// only, like `OpenSession`.
    CloseSession {
        /// The session to close.
        session: String,
    },
    /// Enumerate the live sessions, sorted by name. Multi-session servers
    /// only, like `OpenSession`.
    ListSessions,
}

/// Entity lookups served by [`Request::Query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Query {
    /// One candidate event.
    Event {
        /// Dense event index.
        event: usize,
    },
    /// One time interval.
    Interval {
        /// Dense interval index.
        interval: usize,
    },
    /// One user.
    User {
        /// Dense user index.
        user: usize,
    },
}

/// One response line — every variant is fully deterministic (no
/// wall-clock), so response logs are byte-comparable across runs and
/// thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Result of a `Schedule` request.
    Scheduled {
        /// Canonical algorithm name.
        algorithm: String,
        /// The requested `k`.
        k: usize,
        /// Utility Ω(S) of the returned schedule.
        utility: f64,
        /// The schedule, assignment by assignment, in selection order.
        assignments: Vec<Assignment>,
        /// The run's instrumentation counters.
        stats: Stats,
    },
    /// Result of an `ApplyOps` request.
    Applied {
        /// Number of ops applied.
        applied: usize,
        /// One repair summary per op while the repairer is armed (empty
        /// before the first `Repair`). In windowed mode every op of a
        /// window shares its flush repair's summary, so the
        /// one-entry-per-op shape is preserved.
        repairs: Vec<RepairSummary>,
        /// Per-window coalescing detail — populated only by windowed
        /// requests, so v1 (op-at-a-time) response lines keep their exact
        /// bytes.
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        windows: Vec<WindowSummary>,
    },
    /// Result of a `Repair` request.
    Repaired {
        /// The maintained schedule size `k`.
        k: usize,
        /// Whether a warm repairer was reused (`false` = this request paid
        /// a cold rebuild).
        warm: bool,
        /// Score-table cells rescored eagerly by the reported repair.
        rescored: usize,
        /// Utility Ω(S) of the maintained schedule.
        utility: f64,
        /// The maintained schedule.
        assignments: Vec<Assignment>,
        /// The reported repair's counters.
        stats: Stats,
    },
    /// Result of a `Query` request.
    Info {
        /// The looked-up entity.
        reply: QueryReply,
    },
    /// Result of a `Snapshot` request.
    State {
        /// The state summary.
        snapshot: Snapshot,
    },
    /// Acknowledges a `Reset`.
    ResetDone,
    /// Result of a `Persist`: a new snapshot generation is durable.
    Persisted {
        /// The snapshot generation just written.
        generation: u64,
        /// Write-ahead-log records folded into it.
        folded: u64,
    },
    /// Result of a `Restore`: state reloaded from disk.
    Restored {
        /// The snapshot generation the state was loaded from.
        generation: u64,
        /// Log records replayed on top of it.
        replayed: u64,
    },
    /// Result of an `OpenSession`: the named session is live.
    SessionOpened {
        /// The session's name.
        session: String,
        /// Whether the session persists its state under the server's
        /// state directory.
        durable: bool,
        /// Whether existing on-disk state was recovered into the session
        /// (`false` for a brand-new session).
        recovered: bool,
    },
    /// Result of a `CloseSession`: the name no longer resolves.
    SessionClosed {
        /// The closed session's name.
        session: String,
    },
    /// Result of a `ListSessions`: every live session, sorted by name.
    Sessions {
        /// One summary per live session.
        sessions: Vec<SessionInfo>,
    },
    /// Any failure, as a stable machine-readable code plus rendered
    /// message (see [`ServiceError::code`]).
    Error {
        /// Stable error code.
        code: String,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// The [`Response::Error`] line for a failure: its stable code and
    /// rendered message.
    pub fn error(e: &ServiceError) -> Self {
        Self::Error { code: e.code().to_string(), message: e.to_string() }
    }
}

/// Per-op repair measurements with the wall-clock stripped (the
/// deterministic subset of [`RepairReport`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairSummary {
    /// Score-table cells rescored eagerly.
    pub rescored: usize,
    /// Size of the repaired schedule.
    pub schedule_len: usize,
    /// Utility Ω(S) after the repair.
    pub utility: f64,
    /// The repair's counters.
    pub stats: Stats,
}

/// One row of a [`Response::Sessions`] listing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionInfo {
    /// The session's name.
    pub session: String,
    /// Whether its incremental repairer is armed.
    pub warm: bool,
    /// Delta ops applied over the session's lifetime.
    pub ops_applied: u64,
    /// Whether the session persists to the server's state directory.
    pub durable: bool,
}

/// What one window flush did: how many ops arrived and how few survived
/// coalescing (the redundancy the window absorbed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowSummary {
    /// Ops the window received.
    pub ops: usize,
    /// Ops left after coalescing — what the repairer actually consumed.
    pub coalesced: usize,
}

impl From<&RepairReport> for RepairSummary {
    fn from(r: &RepairReport) -> Self {
        Self {
            rescored: r.rescored,
            schedule_len: r.schedule_len,
            utility: r.utility,
            stats: r.stats,
        }
    }
}

/// Answer to a [`Query`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryReply {
    /// A candidate event.
    Event {
        /// Dense event index.
        event: usize,
        /// Optional display label.
        label: Option<String>,
        /// Location index.
        location: usize,
        /// Resources ξ the event requires.
        required_resources: f64,
        /// Duration in intervals.
        duration: u32,
        /// Mean user interest µ over the current user base.
        mean_interest: f64,
        /// Interval the current schedule places it at, if any.
        scheduled_at: Option<usize>,
    },
    /// A time interval.
    Interval {
        /// Dense interval index.
        interval: usize,
        /// Events the current schedule places here, in id order.
        scheduled: Vec<usize>,
        /// Resources consumed by those events.
        used_resources: f64,
        /// The organizer's per-interval budget θ.
        resources: f64,
        /// Number of competing events pinned to this interval.
        competing: usize,
    },
    /// A user.
    User {
        /// Dense user index.
        user: usize,
        /// The user's weight (1.0 on unweighted instances).
        weight: f64,
        /// Mean activity σ over the intervals.
        mean_activity: f64,
        /// The candidate event the user is most interested in (ties →
        /// smaller event id); `None` only when every interest is 0.
        favorite_event: Option<usize>,
    },
}

/// Full state summary returned by [`Request::Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Current number of users `|U|`.
    pub users: usize,
    /// Current number of candidate events `|E|`.
    pub events: usize,
    /// Number of intervals `|T|`.
    pub intervals: usize,
    /// Number of competing events `|C|`.
    pub competing: usize,
    /// Number of distinct event locations.
    pub locations: usize,
    /// The organizer's per-interval resource budget θ.
    pub resources: f64,
    /// Whether the instance carries per-user weights.
    pub weighted: bool,
    /// Whether the incremental repairer is armed (warm).
    pub warm: bool,
    /// Delta ops applied over the service's lifetime.
    pub ops_applied: u64,
    /// Total scenario-constraint rules on the live instance (capacities +
    /// conflict pairs + precedence edges). Omitted from the wire encoding
    /// when zero, so unconstrained transcripts keep their v1 bytes.
    #[serde(default, skip_serializing_if = "snapshot_no_constraints")]
    pub constraints: usize,
    /// Interest storage layout (`"sparse"`, `"compressed"`), reported only
    /// when it differs from the dense default so dense transcripts keep
    /// their v1 bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub storage: Option<String>,
    /// Approximate resident bytes of the live instance's matrices and lists
    /// (deterministic element counts × sizes). Reported alongside `storage`
    /// for the same compatibility reason.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub heap_bytes: Option<u64>,
    /// The current schedule, if any request has produced one.
    pub schedule: Option<ScheduleState>,
}

/// `skip_serializing_if` predicate for [`Snapshot::constraints`].
fn snapshot_no_constraints(n: &usize) -> bool {
    *n == 0
}

/// The schedule slice of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleState {
    /// Which algorithm produced it (`STREAM` for the maintained repair
    /// schedule).
    pub algorithm: String,
    /// The `k` it was produced for.
    pub k: usize,
    /// Utility Ω(S).
    pub utility: f64,
    /// The assignments, in selection order.
    pub assignments: Vec<Assignment>,
}

/// Typed result of [`SesService::repair`].
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// Measurements of the repair this request reports: the last op's
    /// repair when a warm repairer was reused, otherwise the cold build.
    pub report: RepairReport,
    /// Whether a warm repairer was reused.
    pub warm: bool,
}

/// The current schedule the service answers `Query`/`Snapshot` from.
#[derive(Debug, Clone)]
struct LastSchedule {
    algorithm: String,
    k: usize,
    schedule: Schedule,
    utility: f64,
}

/// An immutable copy of everything a read-only request can observe: the
/// instance, the current schedule, and the lifetime counters.
///
/// The network layer publishes one of these per session after every
/// mutating request (behind an `Arc` swap), so concurrent `Query`/
/// `Snapshot` requests are answered without touching — or waiting on —
/// the live session. Both the live [`SesService`] and a `ReadView` route
/// through the same `query_on`/`snapshot_on` functions, so a view's
/// answer is byte-identical to the serialized answer the session itself
/// would have produced at the moment the view was taken.
#[derive(Debug, Clone)]
pub struct ReadView {
    inst: Instance,
    last: Option<LastSchedule>,
    warm: bool,
    ops_applied: u64,
}

impl ReadView {
    /// Answers [`Request::Query`] exactly as the source session would
    /// have at capture time.
    ///
    /// # Errors
    /// [`ServiceError::OutOfRange`] for a dangling index.
    pub fn query(&self, q: &Query) -> Result<QueryReply, ServiceError> {
        query_on(&self.inst, self.last.as_ref(), q)
    }

    /// Answers [`Request::Snapshot`] exactly as the source session would
    /// have at capture time.
    pub fn snapshot(&self) -> Snapshot {
        snapshot_on(&self.inst, self.last.as_ref(), self.warm, self.ops_applied)
    }

    /// Whether the source session had an armed repairer at capture time.
    pub fn warm(&self) -> bool {
        self.warm
    }

    /// Delta ops the source session had applied at capture time.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Answers one read-only request ([`Request::Query`] or
    /// [`Request::Snapshot`]); any other request kind is a logic error in
    /// the caller and answered as [`ServiceError::Failed`] — the network
    /// router never sends one here.
    pub fn answer(&self, req: &Request) -> Response {
        match req {
            Request::Query { query } => match self.query(query) {
                Ok(reply) => Response::Info { reply },
                Err(e) => Response::error(&e),
            },
            Request::Snapshot => Response::State { snapshot: self.snapshot() },
            _ => Response::error(&ServiceError::failed("read view can only answer Query/Snapshot")),
        }
    }
}

/// Whether a request can be answered from a published [`ReadView`]
/// (shared-read path) as opposed to requiring the session's writer lock.
/// The single classification the network router and the proof tests key
/// on: exactly `Query` and `Snapshot`, the two requests the durable layer
/// also exempts from write-ahead logging.
pub fn is_read_only(req: &Request) -> bool {
    matches!(req, Request::Query { .. } | Request::Snapshot)
}

/// Answers a [`Query`] against an explicit instance + schedule pair — the
/// single implementation behind both [`SesService::query`] (live state)
/// and [`ReadView::query`] (published state), which is what makes the two
/// paths byte-identical by construction.
fn query_on(
    inst: &Instance,
    last: Option<&LastSchedule>,
    q: &Query,
) -> Result<QueryReply, ServiceError> {
    match *q {
        Query::Event { event } => {
            if event >= inst.num_events() {
                return Err(ServiceError::OutOfRange {
                    what: "event",
                    index: event,
                    len: inst.num_events(),
                });
            }
            let e = &inst.events[event];
            // The cached column sum is the same left-to-right fold as
            // summing every user's `value()`: stored zeros add nothing and
            // no layout stores a `-0.0`.
            let mean_interest = inst.event_interest.column_sum(event) / inst.num_users() as f64;
            let scheduled_at =
                last.and_then(|l| l.schedule.interval_of(EventId::new(event))).map(|t| t.index());
            Ok(QueryReply::Event {
                event,
                label: e.label.clone(),
                location: e.location.index(),
                required_resources: e.required_resources,
                duration: e.duration,
                mean_interest,
                scheduled_at,
            })
        }
        Query::Interval { interval } => {
            if interval >= inst.num_intervals() {
                return Err(ServiceError::OutOfRange {
                    what: "interval",
                    index: interval,
                    len: inst.num_intervals(),
                });
            }
            let t = IntervalId::new(interval);
            let (scheduled, used_resources) = match last {
                Some(l) => {
                    let mut events: Vec<usize> =
                        l.schedule.events_at(t).iter().map(|e| e.index()).collect();
                    events.sort_unstable();
                    (events, l.schedule.used_resources(t))
                }
                None => (Vec::new(), 0.0),
            };
            Ok(QueryReply::Interval {
                interval,
                scheduled,
                used_resources,
                resources: inst.resources,
                competing: inst.competing_at(t).count(),
            })
        }
        Query::User { user } => {
            if user >= inst.num_users() {
                return Err(ServiceError::OutOfRange {
                    what: "user",
                    index: user,
                    len: inst.num_users(),
                });
            }
            let intervals = inst.num_intervals();
            let mean_activity = (0..intervals).map(|t| inst.activity.value(user, t)).sum::<f64>()
                / intervals as f64;
            let mut favorite_event = None;
            let mut best = 0.0;
            for e in 0..inst.num_events() {
                let mu = inst.event_interest.value(e, user);
                if mu > best {
                    best = mu;
                    favorite_event = Some(e);
                }
            }
            Ok(QueryReply::User {
                user,
                weight: inst.user_weight(user),
                mean_activity,
                favorite_event,
            })
        }
    }
}

/// Builds a [`Snapshot`] from an explicit instance + schedule pair — the
/// shared implementation behind [`SesService::snapshot`] and
/// [`ReadView::snapshot`] (see [`query_on`]).
fn snapshot_on(
    inst: &Instance,
    last: Option<&LastSchedule>,
    warm: bool,
    ops_applied: u64,
) -> Snapshot {
    Snapshot {
        users: inst.num_users(),
        events: inst.num_events(),
        intervals: inst.num_intervals(),
        competing: inst.num_competing(),
        locations: inst.num_locations(),
        resources: inst.resources,
        weighted: inst.is_weighted(),
        warm,
        ops_applied,
        constraints: inst.constraints.len(),
        storage: match inst.event_interest.storage_kind() {
            ses_core::model::StorageKind::Dense => None,
            kind => Some(kind.name().to_string()),
        },
        heap_bytes: match inst.event_interest.storage_kind() {
            ses_core::model::StorageKind::Dense => None,
            _ => Some(inst.heap_bytes() as u64),
        },
        schedule: last.map(|l| ScheduleState {
            algorithm: l.algorithm.clone(),
            k: l.k,
            utility: l.utility,
            assignments: l.schedule.assignments().to_vec(),
        }),
    }
}

/// Versioned serialized form of a whole [`SesService`] session — the
/// payload of a durable snapshot. It holds only what cannot be recomputed:
/// the live instance, the armed repairer's history (see [`StreamState`]),
/// the current schedule and the lifetime counters. Produced by
/// [`SesService::to_state`], consumed by [`SesService::from_state`].
///
/// Reading accepts layout 1 too: its instance sat in `inst` while cold and
/// inside `stream` while warm, next to the engine caches (dropped on
/// load), and the repairer's schedule carried its bookkeeping (only the
/// assignments are kept).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionState {
    /// Layout version; readers reject anything they do not speak.
    pub version: u32,
    /// The live instance.
    pub inst: Instance,
    /// The armed repairer's history, while the session is warm.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub stream: Option<StreamState>,
    /// The schedule the session answers queries from, if any.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub last: Option<ScheduleState>,
    /// Delta ops applied over the session's lifetime.
    pub ops_applied: u64,
    /// Requests handled over the session's lifetime.
    pub requests_handled: u64,
}

/// The session-state layout version [`SesService::to_state`] writes.
pub const SESSION_STATE_VERSION: u32 = 2;

// Reads `version` off the already-parsed value, then decodes the rest once
// in that layout: a snapshot payload is never parsed twice.
impl Deserialize for SessionState {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v.as_object().ok_or_else(|| serde::Error::expected("object", "SessionState"))?;
        let field =
            |key| member(obj, key).ok_or_else(|| serde::Error::missing_field(key, "SessionState"));
        let optional = |key| member(obj, key).unwrap_or(&Value::Null);
        let (inst, stream) = match u32::from_value(field("version")?)? {
            1 => match (optional("inst"), optional("stream")) {
                (Value::Null, Value::Null) => return Err(layout_1_error("no instance owner")),
                (inst, Value::Null) => (Instance::from_value(inst)?, None),
                (Value::Null, stream) => {
                    let (inst, stream) = stream_state_v1(stream)?;
                    (inst, Some(stream))
                }
                _ => return Err(layout_1_error("two instance owners (cold and warm)")),
            },
            SESSION_STATE_VERSION => {
                (Instance::from_value(field("inst")?)?, Option::from_value(optional("stream"))?)
            }
            version => {
                return Err(serde::Error::custom(format!(
                    "session state layout version {version} (this build reads 1 and {SESSION_STATE_VERSION})"
                )))
            }
        };
        Ok(Self {
            version: SESSION_STATE_VERSION,
            inst,
            stream,
            last: Option::from_value(optional("last"))?,
            ops_applied: u64::from_value(field("ops_applied")?)?,
            requests_handled: u64::from_value(field("requests_handled")?)?,
        })
    }
}

/// The value of an object member.
fn member<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn layout_1_error(what: &str) -> serde::Error {
    serde::Error::custom(format!("layout-1 session state: {what}"))
}

/// Layout 1's warm repairer state: its instance, and its history in the
/// layout-2 form — the engine caches dropped and the schedule reduced to
/// its assignments (the bookkeeping beside them is re-derived on load).
fn stream_state_v1(v: &Value) -> Result<(Instance, StreamState), serde::Error> {
    let obj = v.as_object().ok_or_else(|| serde::Error::expected("object", "StreamState"))?;
    if member(obj, "version").map(u32::from_value).transpose()? != Some(1) {
        return Err(layout_1_error("stream state is not layout 1"));
    }
    let inst =
        member(obj, "inst").ok_or_else(|| layout_1_error("warm state without an instance"))?;
    let mut fields = Vec::with_capacity(obj.len());
    for (key, value) in obj {
        match key.as_str() {
            "version" | "inst" | "warm" => {}
            "schedule" => {
                let order = value.as_object().and_then(|s| member(s, "order"));
                fields.push((key.clone(), order.cloned().unwrap_or(Value::Null)));
            }
            _ => fields.push((key.clone(), value.clone())),
        }
    }
    Ok((Instance::from_value(inst)?, StreamState::from_value(&Value::Object(fields))?))
}

/// The long-lived session service (see the module docs).
#[derive(Debug)]
pub struct SesService {
    /// The warm selection buffers every scheduler run reuses.
    scratch: Scratch,
    /// The live instance, cold or warm.
    inst: Instance,
    /// The armed incremental repairer, if any; it repairs `inst`.
    stream: Option<StreamScheduler>,
    last: Option<LastSchedule>,
    default_threads: Threads,
    ops_applied: u64,
    requests_handled: u64,
}

impl SesService {
    /// A service over `inst` with the ambient thread default
    /// (`SES_THREADS` or sequential).
    pub fn new(inst: Instance) -> Self {
        Self {
            scratch: Scratch::new(),
            inst,
            stream: None,
            last: None,
            default_threads: Threads::default(),
            ops_applied: 0,
            requests_handled: 0,
        }
    }

    /// Overrides the default worker-thread count used when a request
    /// leaves `threads` unset.
    #[must_use]
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.default_threads = threads;
        self
    }

    /// The live instance in its current (post-ops) state.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The schedule the service currently answers queries from — the one
    /// produced by the **most recent** schedule-writing request
    /// (`Schedule`, `Repair`, or a warm `ApplyOps` repair), last writer
    /// wins. [`Snapshot`]'s `schedule.algorithm` says which kind it is
    /// (`STREAM` for the maintained repair schedule). `None` after
    /// construction, a [`reset`](Self::reset), or a cold `ApplyOps`
    /// (which invalidates a schedule its instance mutated under).
    pub fn current_schedule(&self) -> Option<&Schedule> {
        self.last.as_ref().map(|l| &l.schedule)
    }

    /// Ω(S) of [`current_schedule`](Self::current_schedule).
    pub fn current_utility(&self) -> Option<f64> {
        self.last.as_ref().map(|l| l.utility)
    }

    /// Whether the incremental repairer is armed.
    pub fn is_warm(&self) -> bool {
        self.stream.is_some()
    }

    /// Delta ops applied over the service's lifetime.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Requests handled via [`handle`](Self::handle) (typed-API calls are
    /// not counted).
    pub fn requests_handled(&self) -> u64 {
        self.requests_handled
    }

    /// Resolves a request-level thread override against the service
    /// default.
    ///
    /// # Errors
    /// [`ServiceError::InvalidArgument`] for a count above
    /// [`MAX_REQUEST_THREADS`].
    fn resolve_threads(&self, threads: Option<usize>) -> Result<Threads, ServiceError> {
        match threads {
            Some(n) if n > MAX_REQUEST_THREADS => Err(ServiceError::invalid(format!(
                "threads {n} exceeds the per-request limit of {MAX_REQUEST_THREADS}"
            ))),
            Some(n) => Ok(Threads::new(n)),
            None => Ok(self.default_threads),
        }
    }

    /// Runs one named scheduler on the current instance with the
    /// service's warm scratch. Bit-identical — schedule, utility bits, full
    /// [`Stats`] — to a cold `run_configured` with the same config.
    ///
    /// # Errors
    /// [`ServiceError::UnknownAlgorithm`] if `algorithm` does not resolve.
    pub fn schedule(
        &mut self,
        algorithm: &str,
        k: usize,
        cfg: RunConfig,
    ) -> Result<ScheduleResult, ServiceError> {
        Ok(self.schedule_kind(crate::SchedulerKind::resolve(algorithm)?, k, cfg))
    }

    /// [`schedule`](Self::schedule) for an explicit [`SchedulerKind`],
    /// in [`SchedulerKind::ALL`] or not (e.g. a custom `Rand` seed).
    ///
    /// [`SchedulerKind`]: crate::SchedulerKind
    pub fn schedule_kind(
        &mut self,
        kind: crate::SchedulerKind,
        k: usize,
        cfg: RunConfig,
    ) -> ScheduleResult {
        let res = kind.run_configured(&self.inst, k, cfg, &mut self.scratch);
        self.last = Some(LastSchedule {
            algorithm: res.algorithm.to_string(),
            k,
            schedule: res.schedule.clone(),
            utility: res.utility,
        });
        res
    }

    /// Replaces the live instance's scenario constraints wholesale,
    /// validating the set first. Cold: the set is installed directly on the
    /// instance (dropping a now-possibly-infeasible last schedule). Warm:
    /// routed through [`StreamScheduler::set_constraints`], which repairs
    /// the maintained schedule under the new rules.
    ///
    /// # Errors
    /// [`ServiceError::Build`] when the set does not validate against the
    /// current events; nothing changes on error.
    pub fn set_constraints(
        &mut self,
        constraints: ses_core::constraints::ConstraintSet,
    ) -> Result<(), ServiceError> {
        match &mut self.stream {
            Some(stream) => {
                stream.set_constraints(&mut self.inst, constraints)?;
                self.sync_last_from_stream();
            }
            None => {
                constraints.validate(self.inst.num_events())?;
                self.inst.constraints = constraints;
                // The rules changed under the last schedule; drop it rather
                // than answer queries from a possibly-infeasible one.
                self.last = None;
            }
        }
        Ok(())
    }

    /// Applies a batch of delta ops, in order, each op atomically. While
    /// the repairer is armed every op also repairs the maintained schedule
    /// incrementally, and the per-op [`RepairReport`]s are returned (empty
    /// while cold).
    ///
    /// # Errors
    /// [`ServiceError::Delta`] naming the first rejected op; ops before it
    /// remain applied (each op is atomic, the batch is not).
    pub fn apply_ops(&mut self, ops: &[DeltaOp]) -> Result<Vec<RepairReport>, ServiceError> {
        let mut reports = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if let Some(stream) = &mut self.stream {
                match stream.apply(&mut self.inst, op) {
                    Ok(report) => reports.push(report.clone()),
                    Err(e) => return Err(ServiceError::delta(i, e)),
                }
                self.ops_applied += 1;
                self.sync_last_from_stream();
            } else {
                match delta::apply(&mut self.inst, op) {
                    // The instance changed under the last schedule; drop it
                    // rather than report a stale (possibly infeasible) one.
                    Ok(_) => {
                        self.ops_applied += 1;
                        self.last = None;
                    }
                    Err(e) => return Err(ServiceError::delta(i, e)),
                }
            }
        }
        Ok(reports)
    }

    /// Applies a batch of delta ops through windowed ingestion: the ops
    /// are chunked into windows of `window`, each window is coalesced to
    /// its canonical minimal batch, and the repairer (when armed) pays
    /// **one** repair per window flush. The net instance — and, warm, the
    /// maintained schedule and its utility bits — is identical to
    /// [`apply_ops`](Self::apply_ops) on the same ops; only the work (and
    /// therefore the per-window `Stats`) differs.
    ///
    /// Returns one [`RepairReport`] per *original* op (ops of a window
    /// share their flush repair's report; empty while cold) plus one
    /// [`WindowSummary`] per window. [`Snapshot::ops_applied`] keeps
    /// counting original ops.
    ///
    /// # Errors
    /// [`ServiceError::InvalidArgument`] for `window == 0`;
    /// [`ServiceError::Delta`] naming the first rejected op. Complete
    /// windows before it remain applied, the rejected op's window is
    /// rolled up entirely (window-atomic), and nothing after it runs.
    pub fn apply_ops_windowed(
        &mut self,
        ops: &[DeltaOp],
        window: usize,
    ) -> Result<(Vec<RepairReport>, Vec<WindowSummary>), ServiceError> {
        if window == 0 {
            return Err(ServiceError::invalid("window size must be at least 1"));
        }
        let mut reports = Vec::new();
        let mut windows = Vec::with_capacity(ops.len().div_ceil(window));
        for (w, chunk) in ops.chunks(window).enumerate() {
            let start = w * window;
            let batch = delta::coalesce::coalesce(&self.inst, chunk)
                .map_err(|e| ServiceError::delta(start + e.op_index, e.source))?;
            let coalesced = batch.len();
            if let Some(stream) = &mut self.stream {
                // The coalesced batch re-validates clean by construction;
                // a rejection here is an internal invariant breach and is
                // reported against the window's first op.
                let report = stream
                    .apply_batch(&mut self.inst, &batch)
                    .map_err(|e| ServiceError::delta(start, e.source))?
                    .clone();
                self.ops_applied += chunk.len() as u64;
                self.sync_last_from_stream();
                reports.extend(std::iter::repeat_n(report, chunk.len()));
                windows.push(WindowSummary { ops: chunk.len(), coalesced });
            } else {
                for op in &batch {
                    delta::apply(&mut self.inst, op).map_err(|e| ServiceError::delta(start, e))?;
                }
                self.ops_applied += chunk.len() as u64;
                self.last = None;
                windows.push(WindowSummary { ops: chunk.len(), coalesced });
            }
        }
        Ok((reports, windows))
    }

    /// Arms (or reuses) the incremental repairer at `(k, threads, gate)`
    /// and reports the maintained schedule. A warm repairer with matching
    /// parameters is reused as-is (idempotent, no work); any mismatch —
    /// or a cold service — pays one cold rebuild from the current
    /// instance. `cfg.profile` is ignored (the repairer is not
    /// instrumented for phase timing).
    ///
    /// # Errors
    /// Currently infallible; the `Result` reserves room for
    /// resource-limit rejections.
    pub fn repair(&mut self, k: usize, cfg: RunConfig) -> Result<RepairOutcome, ServiceError> {
        let warm = match &self.stream {
            Some(s) => s.k() == k && s.threads() == cfg.threads && s.bound_gate() == cfg.bound_gate,
            None => false,
        };
        if !warm {
            self.stream = Some(
                StreamScheduler::new(&self.inst, k, cfg.threads).with_bound_gate(cfg.bound_gate),
            );
        }
        self.sync_last_from_stream();
        let report = self.stream.as_ref().expect("just armed").last_repair().clone();
        Ok(RepairOutcome { report, warm })
    }

    /// Refreshes `last` from the armed repairer's maintained schedule.
    fn sync_last_from_stream(&mut self) {
        let stream = self.stream.as_ref().expect("sync requires an armed repairer");
        self.last = Some(LastSchedule {
            algorithm: "STREAM".to_string(),
            k: stream.k(),
            schedule: stream.schedule().clone(),
            utility: stream.utility(),
        });
    }

    /// Looks up one entity of the live instance / current schedule.
    ///
    /// # Errors
    /// [`ServiceError::OutOfRange`] for a dangling index.
    pub fn query(&self, q: &Query) -> Result<QueryReply, ServiceError> {
        query_on(&self.inst, self.last.as_ref(), q)
    }

    /// The full state summary.
    pub fn snapshot(&self) -> Snapshot {
        snapshot_on(&self.inst, self.last.as_ref(), self.stream.is_some(), self.ops_applied)
    }

    /// Captures an immutable [`ReadView`] of everything a read-only
    /// request can observe. The network layer publishes one per session
    /// after each mutating request; its answers are byte-identical to
    /// [`query`](Self::query)/[`snapshot`](Self::snapshot) at capture
    /// time (all three route through the same functions).
    pub fn read_view(&self) -> ReadView {
        ReadView {
            inst: self.inst.clone(),
            last: self.last.clone(),
            warm: self.stream.is_some(),
            ops_applied: self.ops_applied,
        }
    }

    /// Serializes the full session state for a durable snapshot (see
    /// [`SessionState`]): the instance, the repairer's history (warm), the
    /// current schedule, and the lifetime counters. The scratch pool and
    /// every cache the instance determines are excluded. For a seeded
    /// session the state is deterministic byte for byte.
    pub fn to_state(&self) -> SessionState {
        SessionState {
            version: SESSION_STATE_VERSION,
            inst: self.inst.clone(),
            stream: self.stream.as_ref().map(StreamScheduler::to_state),
            last: self.last.as_ref().map(|l| ScheduleState {
                algorithm: l.algorithm.clone(),
                k: l.k,
                utility: l.utility,
                assignments: l.schedule.assignments().to_vec(),
            }),
            ops_applied: self.ops_applied,
            requests_handled: self.requests_handled,
        }
    }

    /// Rebuilds a session from a persisted state, re-validating everything
    /// checkable: layout version, the instance's invariants, the
    /// repairer's state (see [`StreamScheduler::from_state`]), and the
    /// recorded schedule — which is replayed through the feasibility gate
    /// and must reproduce the stored utility bits. A state that passes
    /// answers subsequent requests **byte-identically** to the session that
    /// produced it.
    ///
    /// # Errors
    /// [`ServiceError::Corrupt`] naming the first failing check.
    pub fn from_state(state: SessionState, default_threads: Threads) -> Result<Self, ServiceError> {
        let corrupt = |what: String| ServiceError::corrupt(format!("session state: {what}"));
        if state.version != SESSION_STATE_VERSION {
            return Err(corrupt(format!(
                "layout version {} (this build speaks {SESSION_STATE_VERSION})",
                state.version
            )));
        }
        let inst = state.inst;
        inst.validate().map_err(|e| corrupt(format!("instance fails validation: {e}")))?;
        let stream = state.stream.map(|s| StreamScheduler::from_state(s, &inst)).transpose()?;
        let last = match state.last {
            None => None,
            Some(s) => {
                let schedule =
                    replay_schedule(&inst, &s.assignments, s.utility).map_err(corrupt)?;
                Some(LastSchedule { algorithm: s.algorithm, k: s.k, schedule, utility: s.utility })
            }
        };
        Ok(Self {
            stream,
            last,
            default_threads,
            ops_applied: state.ops_applied,
            requests_handled: state.requests_handled,
            ..Self::new(inst)
        })
    }

    /// Drops all warm state — the armed repairer, the scratch pool, the
    /// last schedule — keeping the live instance (every applied op
    /// included) and the lifetime counters.
    pub fn reset(&mut self) {
        self.stream = None;
        self.last = None;
        self.scratch = Scratch::new();
    }

    /// Answers one typed request. Failures come back as
    /// [`Response::Error`] (the service never panics on bad input), so the
    /// serve loop can keep going.
    pub fn handle(&mut self, req: &Request) -> Response {
        self.requests_handled += 1;
        match self.dispatch(req) {
            Ok(resp) => resp,
            Err(e) => Response::error(&e),
        }
    }

    fn dispatch(&mut self, req: &Request) -> Result<Response, ServiceError> {
        match req {
            Request::Schedule { algorithm, k, threads, gate, profile: _, constraints } => {
                let cfg =
                    RunConfig::threaded(self.resolve_threads(*threads)?).with_bound_gate(*gate);
                if let Some(cs) = constraints {
                    self.set_constraints(cs.clone())?;
                }
                let res = self.schedule(algorithm, *k, cfg)?;
                Ok(Response::Scheduled {
                    algorithm: res.algorithm.to_string(),
                    k: res.k,
                    utility: res.utility,
                    assignments: res.schedule.assignments().to_vec(),
                    stats: res.stats,
                })
            }
            Request::ApplyOps { ops, window } => {
                let (reports, windows) = match window {
                    Some(w) => self.apply_ops_windowed(ops, *w)?,
                    None => (self.apply_ops(ops)?, Vec::new()),
                };
                Ok(Response::Applied {
                    applied: ops.len(),
                    repairs: reports.iter().map(RepairSummary::from).collect(),
                    windows,
                })
            }
            Request::Repair { k, threads, gate } => {
                let cfg =
                    RunConfig::threaded(self.resolve_threads(*threads)?).with_bound_gate(*gate);
                let out = self.repair(*k, cfg)?;
                let stream = self.stream.as_ref().expect("repair arms the repairer");
                Ok(Response::Repaired {
                    k: *k,
                    warm: out.warm,
                    rescored: out.report.rescored,
                    utility: out.report.utility,
                    assignments: stream.schedule().assignments().to_vec(),
                    stats: out.report.stats,
                })
            }
            Request::Query { query } => Ok(Response::Info { reply: self.query(query)? }),
            Request::Snapshot => Ok(Response::State { snapshot: self.snapshot() }),
            Request::Reset => {
                self.reset();
                Ok(Response::ResetDone)
            }
            // Durability is opt-in per session; a plain service has no
            // state directory to persist to. `ses serve --state-dir`
            // wraps the session in a `DurableService`, which intercepts
            // these before dispatch.
            Request::Persist | Request::Restore => {
                Err(ServiceError::invalid("session is not durable (start serve with --state-dir)"))
            }
            // Session control only makes sense where sessions are plural;
            // the network layer's `SessionManager` intercepts these
            // before they ever reach a single service.
            Request::OpenSession { .. } | Request::CloseSession { .. } | Request::ListSessions => {
                Err(ServiceError::invalid(
                    "session control requires a multi-session server (start serve with --listen)",
                ))
            }
        }
    }

    /// The serve-loop body: decode one request line, handle it, encode the
    /// response line. Malformed lines come back as encoded `Error`
    /// responses rather than failures.
    pub fn handle_line(&mut self, line: &str) -> String {
        let resp = match wire::decode_request(line) {
            Ok(req) => self.handle(&req),
            Err(e) => Response::error(&e),
        };
        wire::encode_response(&resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scheduler;
    use crate::inc::Inc;
    use crate::SchedulerKind;
    use ses_core::model::{running_example, Event};
    use ses_core::LocationId;

    fn service() -> SesService {
        SesService::new(running_example()).with_threads(Threads::sequential())
    }

    /// Equality on everything but the wall clock.
    fn assert_reports_match(a: &RepairReport, b: &RepairReport) {
        assert_eq!(RepairSummary::from(a), RepairSummary::from(b));
        assert_eq!(a.utility.to_bits(), b.utility.to_bits());
    }

    fn seq_cfg() -> RunConfig {
        RunConfig::threaded(Threads::sequential())
    }

    #[test]
    fn schedule_matches_direct_run_bitwise() {
        let mut svc = service();
        for _ in 0..3 {
            let via = svc.schedule("inc", 3, seq_cfg()).unwrap();
            let direct = Inc.run_configured(&running_example(), 3, seq_cfg(), &mut Scratch::new());
            assert_eq!(via.algorithm, "INC");
            assert_eq!(via.schedule.assignments(), direct.schedule.assignments());
            assert_eq!(via.utility.to_bits(), direct.utility.to_bits());
            assert_eq!(via.stats, direct.stats);
        }
    }

    #[test]
    fn unknown_algorithm_is_typed() {
        let mut svc = service();
        let err = svc.schedule("greedy9000", 2, seq_cfg()).unwrap_err();
        assert_eq!(err.code(), "unknown-algorithm");
    }

    #[test]
    fn apply_ops_cold_then_repair_matches_direct_stream() {
        let op = DeltaOp::ShiftInterest { event: EventId::new(0), user: 1, interest: 0.9 };
        // Service path: cold op, then arm the repairer.
        let mut svc = service();
        svc.apply_ops(std::slice::from_ref(&op)).unwrap();
        let out = svc.repair(3, seq_cfg()).unwrap();
        assert!(!out.warm);
        // Direct path: materialize, cold StreamScheduler.
        let mut inst = running_example();
        delta::apply(&mut inst, &op).unwrap();
        let direct = StreamScheduler::new(&inst, 3, Threads::sequential());
        assert_reports_match(&out.report, direct.last_repair());
        assert_eq!(svc.current_schedule().unwrap(), direct.schedule());
    }

    #[test]
    fn warm_apply_ops_match_direct_stream_repairs() {
        let ops = vec![
            DeltaOp::ShiftInterest { event: EventId::new(2), user: 0, interest: 0.7 },
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(3), 1.0),
                interest: vec![0.5, 0.4],
            },
            DeltaOp::RemoveEvent { event: EventId::new(1) },
        ];
        let mut svc = service();
        svc.repair(3, seq_cfg()).unwrap();
        let mut direct_inst = running_example();
        let mut direct = StreamScheduler::new(&direct_inst, 3, Threads::sequential());
        for op in &ops {
            let reports = svc.apply_ops(std::slice::from_ref(op)).unwrap();
            let direct_report = direct.apply(&mut direct_inst, op).unwrap().clone();
            assert_eq!(reports.len(), 1);
            assert_eq!(reports[0].stats, direct_report.stats);
            assert_eq!(reports[0].utility.to_bits(), direct_report.utility.to_bits());
            assert_eq!(svc.current_schedule().unwrap(), direct.schedule());
        }
        // A matching repair request reuses the warm repairer verbatim.
        let out = svc.repair(3, seq_cfg()).unwrap();
        assert!(out.warm);
        assert_reports_match(&out.report, direct.last_repair());
        // A k change pays a cold rebuild.
        let out = svc.repair(2, seq_cfg()).unwrap();
        assert!(!out.warm);
        let rebuilt = StreamScheduler::new(&direct_inst, 2, Threads::sequential());
        assert_reports_match(&out.report, rebuilt.last_repair());
    }

    #[test]
    fn batch_failure_reports_op_index_and_keeps_prefix() {
        let mut svc = service();
        let ops = vec![
            DeltaOp::ShiftInterest { event: EventId::new(0), user: 0, interest: 0.3 },
            DeltaOp::RemoveEvent { event: EventId::new(99) },
        ];
        let err = svc.apply_ops(&ops).unwrap_err();
        match err {
            ServiceError::Delta { op_index, .. } => assert_eq!(op_index, 1),
            other => panic!("wrong error {other:?}"),
        }
        // The valid prefix stayed applied.
        assert_eq!(svc.instance().event_interest.value(0, 0), 0.3);
        assert_eq!(svc.ops_applied(), 1);
    }

    /// Windowed ingestion must land on the op-at-a-time result: same
    /// instance, same maintained schedule, same utility bits — with one
    /// report per original op and the coalescing visible per window.
    #[test]
    fn windowed_apply_matches_op_at_a_time() {
        let ops = vec![
            DeltaOp::ShiftInterest { event: EventId::new(2), user: 0, interest: 0.7 },
            DeltaOp::ShiftInterest { event: EventId::new(2), user: 0, interest: 0.1 },
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(3), 1.0),
                interest: vec![0.5, 0.4],
            },
            DeltaOp::RemoveEvent { event: EventId::new(1) },
            DeltaOp::ShiftInterest { event: EventId::new(0), user: 1, interest: 0.2 },
        ];
        let mut windowed = service();
        let mut serial = service();
        windowed.repair(3, seq_cfg()).unwrap();
        serial.repair(3, seq_cfg()).unwrap();
        serial.apply_ops(&ops).unwrap();
        let (reports, windows) = windowed.apply_ops_windowed(&ops, 3).unwrap();
        assert_eq!(reports.len(), ops.len());
        assert_eq!(
            windows,
            // Window two's drift restores the running example's base
            // interest at (0, 1), so it coalesces away entirely.
            vec![WindowSummary { ops: 3, coalesced: 2 }, WindowSummary { ops: 2, coalesced: 1 }]
        );
        assert_eq!(windowed.instance(), serial.instance());
        assert_eq!(windowed.current_schedule(), serial.current_schedule());
        assert_eq!(windowed.ops_applied(), serial.ops_applied());
        // Ops of one window share their flush repair's report.
        assert_reports_match(&reports[0], &reports[2]);
    }

    /// Cold windowed ingestion coalesces too, and counts original ops.
    #[test]
    fn windowed_apply_cold_coalesces() {
        let ops = vec![
            DeltaOp::ShiftInterest { event: EventId::new(0), user: 0, interest: 0.4 },
            DeltaOp::ShiftInterest { event: EventId::new(0), user: 0, interest: 0.6 },
        ];
        let mut svc = service();
        let (reports, windows) = svc.apply_ops_windowed(&ops, 8).unwrap();
        assert!(reports.is_empty(), "cold path has no repairs to report");
        assert_eq!(windows, vec![WindowSummary { ops: 2, coalesced: 1 }]);
        assert_eq!(svc.instance().event_interest.value(0, 0), 0.6);
        assert_eq!(svc.ops_applied(), 2);
        assert_eq!(svc.apply_ops_windowed(&[], 0).unwrap_err().code(), "invalid-argument");
    }

    /// A rejected op voids its whole window but keeps prior windows.
    #[test]
    fn windowed_failure_is_window_atomic() {
        let mut svc = service();
        svc.repair(3, seq_cfg()).unwrap();
        let ops = vec![
            DeltaOp::ShiftInterest { event: EventId::new(0), user: 0, interest: 0.3 },
            DeltaOp::ShiftInterest { event: EventId::new(2), user: 1, interest: 0.8 },
            DeltaOp::RemoveEvent { event: EventId::new(99) },
        ];
        let err = svc.apply_ops_windowed(&ops, 2).unwrap_err();
        match err {
            ServiceError::Delta { op_index, .. } => assert_eq!(op_index, 2),
            other => panic!("wrong error {other:?}"),
        }
        // Window one (ops 0–1) flushed; window two applied nothing.
        assert_eq!(svc.instance().event_interest.value(0, 0), 0.3);
        assert_eq!(svc.instance().num_events(), 4);
        assert_eq!(svc.ops_applied(), 2);
    }

    /// v1 `ApplyOps` lines (no `window` member) must parse and answer
    /// with byte-stable `Applied` responses (no `windows` member).
    #[test]
    fn windowless_wire_lines_stay_v1_compatible() {
        let mut svc = service();
        let resp = svc.handle_line(
            r#"{"v":1,"req":{"ApplyOps":{"ops":[{"ShiftInterest":{"event":0,"user":0,"interest":0.5}}]}}}"#,
        );
        assert_eq!(resp, r#"{"v":1,"resp":{"Applied":{"applied":1,"repairs":[]}}}"#);
        let resp = svc.handle_line(
            r#"{"v":1,"req":{"ApplyOps":{"ops":[{"ShiftInterest":{"event":0,"user":0,"interest":0.25}},{"ShiftInterest":{"event":0,"user":0,"interest":0.75}}],"window":4}}}"#,
        );
        assert!(resp.contains(r#""windows":[{"ops":2,"coalesced":1}]"#), "{resp}");
    }

    #[test]
    fn query_and_snapshot_track_state() {
        let mut svc = service();
        let snap = svc.snapshot();
        assert_eq!((snap.users, snap.events, snap.intervals), (2, 4, 2));
        assert!(!snap.warm);
        assert!(snap.schedule.is_none());

        svc.schedule("hor", 2, seq_cfg()).unwrap();
        let snap = svc.snapshot();
        let sched = snap.schedule.expect("schedule recorded");
        assert_eq!(sched.algorithm, "HOR");
        assert_eq!(sched.assignments.len(), 2);

        // Event query reflects the schedule.
        let placed = sched.assignments[0];
        match svc.query(&Query::Event { event: placed.event.index() }).unwrap() {
            QueryReply::Event { scheduled_at, .. } => {
                assert_eq!(scheduled_at, Some(placed.interval.index()));
            }
            other => panic!("wrong reply {other:?}"),
        }
        match svc.query(&Query::Interval { interval: placed.interval.index() }).unwrap() {
            QueryReply::Interval { scheduled, used_resources, .. } => {
                assert!(scheduled.contains(&placed.event.index()));
                assert!(used_resources > 0.0);
            }
            other => panic!("wrong reply {other:?}"),
        }
        match svc.query(&Query::User { user: 0 }).unwrap() {
            QueryReply::User { weight, favorite_event, .. } => {
                assert_eq!(weight, 1.0);
                assert!(favorite_event.is_some());
            }
            other => panic!("wrong reply {other:?}"),
        }
        assert_eq!(svc.query(&Query::User { user: 99 }).unwrap_err().code(), "out-of-range");
    }

    /// Dense services omit `storage`/`heap_bytes` entirely (old transcripts
    /// stay byte-identical); non-dense services report both.
    #[test]
    fn snapshot_reports_storage_only_when_not_dense() {
        let mut svc = service();
        let snap = svc.snapshot();
        assert_eq!(snap.storage, None);
        assert_eq!(snap.heap_bytes, None);
        let line = svc.handle_line(r#"{"v":1,"req":"Snapshot"}"#);
        assert!(!line.contains("storage") && !line.contains("heap_bytes"), "{line}");

        for kind in [ses_core::model::StorageKind::Sparse, ses_core::model::StorageKind::Compressed]
        {
            let mut inst = running_example();
            inst.event_interest = inst.event_interest.convert_to(kind);
            let expected = inst.heap_bytes() as u64;
            let mut svc = SesService::new(inst).with_threads(Threads::sequential());
            let snap = svc.snapshot();
            assert_eq!(snap.storage.as_deref(), Some(kind.name()));
            assert_eq!(snap.heap_bytes, Some(expected));
            let line = svc.handle_line(r#"{"v":1,"req":"Snapshot"}"#);
            assert!(line.contains(&format!(r#""storage":"{}""#, kind.name())), "{line}");
        }
    }

    #[test]
    fn reset_keeps_instance_drops_warm_state() {
        let mut svc = service();
        svc.repair(2, seq_cfg()).unwrap();
        svc.apply_ops(&[DeltaOp::ShiftInterest { event: EventId::new(0), user: 0, interest: 0.9 }])
            .unwrap();
        assert!(svc.is_warm());
        svc.reset();
        assert!(!svc.is_warm());
        assert!(svc.current_schedule().is_none());
        // The applied op survived the reset.
        assert_eq!(svc.instance().event_interest.value(0, 0), 0.9);
        assert_eq!(svc.ops_applied(), 1);
        // The service still serves after a reset.
        assert!(svc.schedule("alg", 2, seq_cfg()).is_ok());
    }

    #[test]
    fn schedule_kind_pools_unregistered_kinds() {
        let mut svc = service();
        let res = svc.schedule_kind(SchedulerKind::Rand(7), 2, seq_cfg());
        assert_eq!(res.algorithm, "RAND");
        let direct = SchedulerKind::Rand(7).run_configured(
            &running_example(),
            2,
            seq_cfg(),
            &mut Scratch::new(),
        );
        assert_eq!(res.schedule.assignments(), direct.schedule.assignments());
        assert_eq!(res.utility.to_bits(), direct.utility.to_bits());
    }

    /// A `Schedule` request's constraints block installs on whichever side
    /// owns the instance — cold or warm — persists across requests, and an
    /// invalid set is rejected with the `build` code, state untouched.
    #[test]
    fn schedule_request_installs_constraints() {
        use ses_core::constraints::ConstraintSet;
        let mut cs = ConstraintSet::new();
        cs.add_conflict(EventId::new(0), EventId::new(1));
        cs.set_venue_capacity(LocationId::new(0), 1);

        // Cold path: the run respects the rules, and they persist.
        let mut svc = service();
        let resp = svc.handle(&Request::Schedule {
            algorithm: "inc".into(),
            k: 3,
            threads: None,
            gate: false,
            profile: false,
            constraints: Some(cs.clone()),
        });
        let Response::Scheduled { assignments, .. } = resp else {
            panic!("wrong response {resp:?}");
        };
        let placed: Vec<usize> = assignments.iter().map(|a| a.event.index()).collect();
        assert!(!(placed.contains(&0) && placed.contains(&1)), "conflict violated");
        assert_eq!(svc.instance().constraints, cs);
        assert_eq!(svc.snapshot().constraints, 2);
        // Direct run on an equivalently constrained instance: bit-identical.
        let direct = Inc.run_configured(
            &{
                let mut i = running_example();
                i.constraints = cs.clone();
                i
            },
            3,
            seq_cfg(),
            &mut Scratch::new(),
        );
        assert_eq!(svc.current_schedule().unwrap(), &direct.schedule);

        // Warm path routes through the repairer.
        svc.repair(3, seq_cfg()).unwrap();
        svc.handle(&Request::Schedule {
            algorithm: "alg".into(),
            k: 2,
            threads: None,
            gate: false,
            profile: false,
            constraints: Some(ConstraintSet::new()),
        });
        assert!(svc.is_warm());
        assert!(svc.instance().constraints.is_empty());
        assert_eq!(svc.snapshot().constraints, 0);

        // Invalid set: typed `build` error, constraints unchanged.
        let mut bad = ConstraintSet::new();
        bad.add_precedence(EventId::new(0), EventId::new(42));
        let resp = svc.handle(&Request::Schedule {
            algorithm: "inc".into(),
            k: 2,
            threads: None,
            gate: false,
            profile: false,
            constraints: Some(bad),
        });
        match resp {
            Response::Error { code, .. } => assert_eq!(code, "build"),
            other => panic!("wrong response {other:?}"),
        }
        assert!(svc.instance().constraints.is_empty());
    }

    /// `Schedule`'s `profile` flag is accepted and ignored: on and off
    /// answer the same bytes, for every scheduler and both session paths
    /// (cold, then warm after a `Repair`).
    #[test]
    fn schedule_profile_flag_answers_the_same_bytes() {
        let answers = |profile: bool| -> Vec<String> {
            let mut svc = service();
            let mut out = Vec::new();
            for warm in [false, true] {
                if warm {
                    svc.repair(2, seq_cfg()).unwrap();
                }
                for kind in SchedulerKind::ALL {
                    let line = format!(
                        r#"{{"v":1,"req":{{"Schedule":{{"algorithm":"{}","k":3,"profile":{profile}}}}}}}"#,
                        kind.name()
                    );
                    let req = wire::decode_request(&line).unwrap();
                    out.push(wire::encode_response(&svc.handle(&req)));
                }
            }
            out
        };
        assert_eq!(answers(true), answers(false));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// `Query::Event`'s mean interest, read off the cached column sum,
        /// has the bits of the per-user `value()` fold it replaced, on every
        /// layout and under `ShiftInterest` churn that also writes `0.0`
        /// and `-0.0` (which can zero out whole columns).
        #[test]
        fn event_mean_interest_matches_the_per_user_fold(
            writes in proptest::collection::vec((0usize..4, 0usize..2, 0usize..5), 16)
        ) {
            use ses_core::model::StorageKind;
            const VALUES: [f64; 5] = [0.0, -0.0, 0.3, 0.45, 1.0];
            for kind in [StorageKind::Dense, StorageKind::Sparse, StorageKind::Compressed] {
                let mut inst = running_example();
                inst.event_interest = inst.event_interest.convert_to(kind);
                let mut svc = SesService::new(inst).with_threads(Threads::sequential());
                for &(event, user, v) in &writes {
                    let op = DeltaOp::ShiftInterest {
                        event: EventId::new(event),
                        user,
                        interest: VALUES[v],
                    };
                    svc.apply_ops(&[op]).unwrap();
                    let inst = svc.instance();
                    for e in 0..inst.num_events() {
                        let users = inst.num_users();
                        let fold = (0..users).map(|u| inst.event_interest.value(e, u)).sum::<f64>()
                            / users as f64;
                        let Ok(QueryReply::Event { mean_interest, .. }) =
                            svc.query(&Query::Event { event: e })
                        else {
                            panic!("event {e} must answer");
                        };
                        proptest::prop_assert_eq!(mean_interest.to_bits(), fold.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn handle_converts_failures_to_error_responses() {
        let mut svc = service();
        let resp = svc.handle(&Request::Schedule {
            algorithm: "nope".into(),
            k: 2,
            threads: None,
            gate: false,
            profile: false,
            constraints: None,
        });
        match resp {
            Response::Error { code, message } => {
                assert_eq!(code, "unknown-algorithm");
                assert!(message.contains("nope"));
            }
            other => panic!("wrong response {other:?}"),
        }
        assert_eq!(svc.requests_handled(), 1);
    }
}

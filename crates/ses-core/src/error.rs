//! Error types for instance construction and schedule manipulation.

use crate::ids::{EventId, IntervalId};
use std::fmt;

/// Errors raised while building or validating an [`Instance`].
///
/// [`Instance`]: crate::model::Instance
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// An interest value was outside `[0, 1]`.
    InterestOutOfRange {
        /// Offending value.
        value: f64,
        /// Human-readable description of where it was found.
        context: String,
    },
    /// An activity probability was outside `[0, 1]`.
    ActivityOutOfRange {
        /// Offending value.
        value: f64,
        /// Human-readable description of where it was found.
        context: String,
    },
    /// A competing event referenced an interval that does not exist.
    DanglingCompetingInterval {
        /// The out-of-range interval index.
        interval: usize,
        /// Number of intervals in the instance.
        num_intervals: usize,
    },
    /// An event's required resources exceed the organizer's total resources,
    /// so the event can never be scheduled.
    EventNeverSchedulable {
        /// The impossible event.
        event: EventId,
        /// Resources the event requires.
        required: f64,
        /// Resources the organizer has per interval.
        available: f64,
    },
    /// A dimension (users/events/intervals) was zero where it must not be.
    EmptyDimension(&'static str),
    /// A matrix had the wrong number of entries for the declared dimensions.
    DimensionMismatch {
        /// What was being validated.
        what: &'static str,
        /// Expected number of entries.
        expected: usize,
        /// Actual number of entries.
        actual: usize,
    },
    /// A resource quantity (θ or ξ) was negative or non-finite.
    InvalidResource {
        /// Offending value.
        value: f64,
        /// Human-readable description of where it was found.
        context: String,
    },
    /// A user weight was negative or non-finite.
    InvalidWeight {
        /// Offending value.
        value: f64,
        /// The user it belongs to.
        user: usize,
    },
    /// A venue capacity was zero (use no entry to leave a venue
    /// unconstrained).
    ZeroVenueCapacity {
        /// The location with the zero budget.
        location: crate::ids::LocationId,
    },
    /// Two capacity entries target the same location.
    DuplicateVenueCapacity {
        /// The doubly-constrained location.
        location: crate::ids::LocationId,
    },
    /// A constraint referenced an event that does not exist.
    DanglingConstraintEvent {
        /// The dangling event id.
        event: EventId,
        /// Number of candidate events in the instance.
        num_events: usize,
        /// Which constraint family referenced it.
        context: &'static str,
    },
    /// A conflict pair or precedence edge referenced an event on both sides.
    SelfReferentialConstraint {
        /// The twice-referenced event.
        event: EventId,
        /// Which constraint family it appeared in.
        context: &'static str,
    },
    /// The precedence relation contains a cycle, so no schedule placing all
    /// its events could ever be feasible.
    PrecedenceCycle {
        /// An event on the cycle.
        event: EventId,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InterestOutOfRange { value, context } => {
                write!(f, "interest value {value} out of [0,1] ({context})")
            }
            Self::ActivityOutOfRange { value, context } => {
                write!(f, "activity probability {value} out of [0,1] ({context})")
            }
            Self::DanglingCompetingInterval { interval, num_intervals } => write!(
                f,
                "competing event references interval {interval} but instance has {num_intervals}"
            ),
            Self::EventNeverSchedulable { event, required, available } => write!(
                f,
                "{event} requires {required} resources but only {available} are available"
            ),
            Self::EmptyDimension(what) => write!(f, "instance has no {what}"),
            Self::DimensionMismatch { what, expected, actual } => {
                write!(f, "{what}: expected {expected} entries, got {actual}")
            }
            Self::InvalidResource { value, context } => {
                write!(f, "invalid resource quantity {value} ({context})")
            }
            Self::InvalidWeight { value, user } => {
                write!(f, "invalid weight {value} for user {user}")
            }
            Self::ZeroVenueCapacity { location } => {
                write!(f, "venue capacity for {location} is zero (omit the entry instead)")
            }
            Self::DuplicateVenueCapacity { location } => {
                write!(f, "duplicate venue-capacity entry for {location}")
            }
            Self::DanglingConstraintEvent { event, num_events, context } => {
                write!(f, "{context} references {event} but instance has {num_events} events")
            }
            Self::SelfReferentialConstraint { event, context } => {
                write!(f, "{context} references {event} on both sides")
            }
            Self::PrecedenceCycle { event } => {
                write!(f, "precedence constraints form a cycle through {event}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Errors raised while mutating a [`Schedule`].
///
/// [`Schedule`]: crate::schedule::Schedule
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The event is already scheduled (schedules map each event at most once).
    EventAlreadyScheduled(EventId),
    /// Assigning the event would place two events with the same location in
    /// the same interval (location constraint of §2.1).
    LocationConflict {
        /// Event being assigned.
        event: EventId,
        /// Interval of the attempted assignment.
        interval: IntervalId,
        /// Already-scheduled event occupying the same location.
        occupant: EventId,
    },
    /// Assigning the event would exceed the organizer's resources θ in the
    /// interval (resources constraint of §2.1).
    ResourcesExceeded {
        /// Event being assigned.
        event: EventId,
        /// Interval of the attempted assignment.
        interval: IntervalId,
    },
    /// The event is not currently scheduled (for removal operations).
    EventNotScheduled(EventId),
    /// Assigning the event would push its venue past the per-venue
    /// slot budget of the instance's [`ConstraintSet`].
    ///
    /// [`ConstraintSet`]: crate::constraints::ConstraintSet
    VenueCapacityExceeded {
        /// Event being assigned.
        event: EventId,
        /// The capped location.
        location: crate::ids::LocationId,
        /// The configured slot budget.
        capacity: u32,
    },
    /// The event is in a conflict pair with an already-scheduled event.
    ConflictViolation {
        /// Event being assigned.
        event: EventId,
        /// The already-scheduled conflicting event.
        other: EventId,
    },
    /// The assignment would violate a precedence edge (`before` would not
    /// finish before `after` starts).
    PrecedenceViolation {
        /// The event that must run first.
        before: EventId,
        /// The event that must run later.
        after: EventId,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EventAlreadyScheduled(e) => write!(f, "{e} is already scheduled"),
            Self::LocationConflict { event, interval, occupant } => {
                write!(f, "{event} conflicts with {occupant} (same location) at {interval}")
            }
            Self::ResourcesExceeded { event, interval } => {
                write!(f, "assigning {event} at {interval} exceeds available resources")
            }
            Self::EventNotScheduled(e) => write!(f, "{e} is not scheduled"),
            Self::VenueCapacityExceeded { event, location, capacity } => {
                write!(f, "assigning {event} exceeds capacity {capacity} of {location}")
            }
            Self::ConflictViolation { event, other } => {
                write!(f, "{event} conflicts with scheduled {other} (mutual exclusion)")
            }
            Self::PrecedenceViolation { before, after } => {
                write!(f, "{before} must finish before {after} starts")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Errors raised while applying a [`DeltaOp`] to a live [`Instance`].
///
/// [`DeltaOp`]: crate::delta::DeltaOp
/// [`Instance`]: crate::model::Instance
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// The op referenced an event that does not exist.
    UnknownEvent {
        /// The dangling event id.
        event: EventId,
        /// Current number of candidate events.
        num_events: usize,
    },
    /// The op referenced a user that does not exist.
    UnknownUser {
        /// The dangling user index.
        user: usize,
        /// Current number of users.
        num_users: usize,
    },
    /// The removal would empty a dimension the instance requires.
    WouldEmpty(&'static str),
    /// A payload vector had the wrong length for the instance's shape.
    ShapeMismatch {
        /// What was being applied.
        what: &'static str,
        /// Expected number of entries.
        expected: usize,
        /// Actual number of entries.
        actual: usize,
    },
    /// An interest/activity/weight value was outside its valid range.
    ValueOutOfRange {
        /// What kind of value it was.
        what: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A new event's required resources exceed the organizer's θ (or are
    /// invalid), so it could never be scheduled.
    UnschedulableEvent {
        /// Resources the event requires.
        required: f64,
        /// Resources the organizer has per interval.
        available: f64,
    },
    /// `RetireUsers` indices must be strictly increasing (sorted, unique).
    UnsortedUsers,
    /// A new user's weight presence must match the instance's weight
    /// configuration (weighted instances need one, unweighted forbid it).
    WeightMismatch {
        /// Whether the instance carries per-user weights.
        instance_weighted: bool,
    },
    /// The op carried an empty payload where at least one entry is required.
    EmptyOp(&'static str),
    /// A constraint op referenced the same event on both sides.
    SelfConstraint {
        /// The twice-referenced event.
        event: EventId,
    },
    /// Adding the precedence edge would close a cycle.
    ConstraintCycle {
        /// The `before` endpoint of the rejected edge.
        before: EventId,
        /// The `after` endpoint of the rejected edge.
        after: EventId,
    },
    /// The constraint to add already exists.
    DuplicateConstraint,
    /// The constraint to remove does not exist.
    UnknownConstraint,
    /// A venue-capacity op carried a zero budget (clear the entry instead).
    ZeroCapacity,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownEvent { event, num_events } => {
                write!(f, "{event} does not exist (instance has {num_events} events)")
            }
            Self::UnknownUser { user, num_users } => {
                write!(f, "user {user} does not exist (instance has {num_users} users)")
            }
            Self::WouldEmpty(what) => write!(f, "removal would leave the instance with no {what}"),
            Self::ShapeMismatch { what, expected, actual } => {
                write!(f, "{what}: expected {expected} entries, got {actual}")
            }
            Self::ValueOutOfRange { what, value } => {
                write!(f, "{what} value {value} out of range")
            }
            Self::UnschedulableEvent { required, available } => write!(
                f,
                "new event requires {required} resources but only {available} are available"
            ),
            Self::UnsortedUsers => {
                write!(f, "retired-user indices must be strictly increasing")
            }
            Self::WeightMismatch { instance_weighted } => {
                if *instance_weighted {
                    write!(f, "weighted instance: every new user needs a weight")
                } else {
                    write!(f, "unweighted instance: new users must not carry weights")
                }
            }
            Self::EmptyOp(what) => write!(f, "op carries no {what}"),
            Self::SelfConstraint { event } => {
                write!(f, "constraint references {event} on both sides")
            }
            Self::ConstraintCycle { before, after } => {
                write!(f, "precedence {before} -> {after} would close a cycle")
            }
            Self::DuplicateConstraint => write!(f, "constraint already exists"),
            Self::UnknownConstraint => write!(f, "constraint does not exist"),
            Self::ZeroCapacity => {
                write!(f, "venue capacity must be positive (clear the entry to unconstrain)")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// The wire protocol version the service speaks (see
/// `ses_algorithms::service::wire`).
pub const SERVICE_PROTOCOL_VERSION: u64 = 1;

/// The unified error surface of the long-lived service API (and of the
/// `ses` CLI, which routes every failure through it so exit codes and
/// messages stay consistent).
///
/// Every failure a request can hit maps to one typed variant: the three
/// domain errors ([`BuildError`], [`ScheduleError`], [`DeltaError`]) are
/// wrapped, and the service/CLI-specific conditions (unknown names, bad
/// arguments, protocol violations, I/O) get variants of their own —
/// replacing the ad-hoc `String` errors the CLI used to thread around.
///
/// [`code`](Self::code) gives each variant a stable machine-readable tag
/// (the wire protocol's `Error` responses carry `{code, message}`), and
/// [`is_usage`](Self::is_usage) classifies the caller-mistake subset the
/// CLI reports with exit code 2 instead of 1.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Instance construction or validation failed.
    Build(BuildError),
    /// A schedule mutation was infeasible.
    Schedule(ScheduleError),
    /// A delta op was rejected. `op_index` locates it within the submitted
    /// batch; ops before it were already applied (ops apply one at a time,
    /// each atomically).
    Delta {
        /// Position of the failing op in the request's batch.
        op_index: usize,
        /// The underlying rejection.
        source: DeltaError,
    },
    /// A scheduler name did not resolve to a `SchedulerKind`.
    UnknownAlgorithm {
        /// The unresolvable name.
        name: String,
        /// The canonical names of every `SchedulerKind`.
        known: Vec<&'static str>,
    },
    /// An entity index (event/interval/user) was outside the instance.
    OutOfRange {
        /// What kind of entity was looked up.
        what: &'static str,
        /// The out-of-range index.
        index: usize,
        /// Current number of entities of that kind.
        len: usize,
    },
    /// A command-line argument or request parameter was malformed — the
    /// caller-mistake class the CLI exits 2 on.
    InvalidArgument {
        /// Human-readable description of the problem.
        detail: String,
    },
    /// A wire envelope declared a protocol version this build cannot serve.
    UnsupportedVersion {
        /// The version the envelope declared.
        got: u64,
        /// The version this build speaks.
        supported: u64,
    },
    /// A wire line was not a well-formed request envelope.
    Protocol {
        /// What was wrong with it.
        detail: String,
    },
    /// An operating-system I/O failure (file write, pipe, …).
    Io {
        /// The rendered I/O error.
        detail: String,
    },
    /// Durable state (a snapshot, a write-ahead log, or a persisted
    /// instance file) failed its integrity checks: bad magic, checksum
    /// mismatch, impossible framing, or content that no longer validates.
    /// Recovery refuses to proceed rather than risk a silently wrong
    /// answer — this is the loud-failure half of the durability contract.
    Corrupt {
        /// What was corrupt and how it failed validation.
        detail: String,
    },
    /// A runtime failure that is not a caller mistake (verification
    /// divergence, regression-gate trip, …).
    Failed {
        /// What failed.
        detail: String,
    },
    /// A request addressed a session name the server does not have — the
    /// multi-session analogue of [`UnknownAlgorithm`](Self::UnknownAlgorithm).
    UnknownSession {
        /// The unresolvable session name.
        name: String,
    },
}

impl ServiceError {
    /// Builds the [`Delta`](Self::Delta) variant for the op at `op_index`.
    pub fn delta(op_index: usize, source: DeltaError) -> Self {
        Self::Delta { op_index, source }
    }

    /// Convenience constructor for [`InvalidArgument`](Self::InvalidArgument).
    pub fn invalid(detail: impl Into<String>) -> Self {
        Self::InvalidArgument { detail: detail.into() }
    }

    /// Convenience constructor for [`Failed`](Self::Failed).
    pub fn failed(detail: impl Into<String>) -> Self {
        Self::Failed { detail: detail.into() }
    }

    /// Convenience constructor for [`Protocol`](Self::Protocol).
    pub fn protocol(detail: impl Into<String>) -> Self {
        Self::Protocol { detail: detail.into() }
    }

    /// Convenience constructor for [`Corrupt`](Self::Corrupt).
    pub fn corrupt(detail: impl Into<String>) -> Self {
        Self::Corrupt { detail: detail.into() }
    }

    /// Stable machine-readable tag, carried by wire `Error` responses.
    pub fn code(&self) -> &'static str {
        match self {
            Self::Build(_) => "build",
            Self::Schedule(_) => "schedule",
            Self::Delta { .. } => "delta",
            Self::UnknownAlgorithm { .. } => "unknown-algorithm",
            Self::OutOfRange { .. } => "out-of-range",
            Self::InvalidArgument { .. } => "invalid-argument",
            Self::UnsupportedVersion { .. } => "unsupported-version",
            Self::Protocol { .. } => "protocol",
            Self::Io { .. } => "io",
            Self::Corrupt { .. } => "corrupt",
            Self::Failed { .. } => "failed",
            Self::UnknownSession { .. } => "unknown-session",
        }
    }

    /// Whether this is a caller mistake (bad argument / unknown name) as
    /// opposed to a runtime failure. The CLI maps usage errors to exit
    /// code 2 and everything else to exit code 1.
    pub fn is_usage(&self) -> bool {
        matches!(
            self,
            Self::InvalidArgument { .. }
                | Self::UnknownAlgorithm { .. }
                | Self::UnknownSession { .. }
        )
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Build(e) => write!(f, "instance error: {e}"),
            Self::Schedule(e) => write!(f, "schedule error: {e}"),
            Self::Delta { op_index, source } => write!(f, "op {op_index}: {source}"),
            Self::UnknownAlgorithm { name, known } => {
                write!(f, "unknown algorithm '{name}' (known: {})", known.join(", "))
            }
            Self::OutOfRange { what, index, len } => {
                write!(f, "{what} {index} does not exist (instance has {len})")
            }
            Self::InvalidArgument { detail } => write!(f, "{detail}"),
            Self::UnsupportedVersion { got, supported } => {
                write!(f, "unsupported protocol version {got} (this build speaks v{supported})")
            }
            Self::Protocol { detail } => write!(f, "malformed request: {detail}"),
            Self::Io { detail } => write!(f, "I/O error: {detail}"),
            Self::Corrupt { detail } => write!(f, "corrupt state: {detail}"),
            Self::Failed { detail } => write!(f, "{detail}"),
            Self::UnknownSession { name } => {
                write!(f, "unknown session '{name}' (open it first with OpenSession)")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Build(e) => Some(e),
            Self::Schedule(e) => Some(e),
            Self::Delta { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<BuildError> for ServiceError {
    fn from(e: BuildError) -> Self {
        Self::Build(e)
    }
}

impl From<ScheduleError> for ServiceError {
    fn from(e: ScheduleError) -> Self {
        Self::Schedule(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        Self::Io { detail: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = BuildError::InterestOutOfRange { value: 1.5, context: "user 0, event 1".into() };
        assert!(e.to_string().contains("1.5"));
        assert!(e.to_string().contains("user 0"));

        let e = ScheduleError::LocationConflict {
            event: EventId::new(1),
            interval: IntervalId::new(0),
            occupant: EventId::new(2),
        };
        let msg = e.to_string();
        assert!(msg.contains("e1") && msg.contains("e2") && msg.contains("t0"));
    }

    #[test]
    fn errors_implement_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&BuildError::EmptyDimension("users"));
        takes_err(&ScheduleError::EventNotScheduled(EventId::new(0)));
        takes_err(&ServiceError::failed("x"));
    }

    #[test]
    fn service_error_wraps_domain_errors_with_sources() {
        use std::error::Error as _;
        let e: ServiceError = BuildError::EmptyDimension("users").into();
        assert_eq!(e.code(), "build");
        assert!(e.source().is_some());
        assert!(e.to_string().contains("no users"));

        let e = ServiceError::delta(3, DeltaError::UnknownUser { user: 9, num_users: 2 });
        assert_eq!(e.code(), "delta");
        assert!(e.to_string().contains("op 3"));
        assert!(e.to_string().contains("user 9"));
    }

    #[test]
    fn usage_classification_drives_exit_codes() {
        assert!(ServiceError::invalid("bad flag").is_usage());
        assert!(
            ServiceError::UnknownAlgorithm { name: "XYZ".into(), known: vec!["ALG"] }.is_usage()
        );
        assert!(!ServiceError::failed("verify diverged").is_usage());
        assert!(!ServiceError::Io { detail: "broken pipe".into() }.is_usage());
        assert!(!ServiceError::UnsupportedVersion { got: 9, supported: 1 }.is_usage());
        // Corrupt durable state is a runtime failure (exit 1), never a
        // usage error: the caller typed nothing wrong.
        assert!(!ServiceError::corrupt("wal record 3: payload checksum mismatch").is_usage());
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            ServiceError::Build(BuildError::EmptyDimension("users")).code(),
            ServiceError::Schedule(ScheduleError::EventNotScheduled(EventId::new(0))).code(),
            ServiceError::delta(0, DeltaError::UnsortedUsers).code(),
            ServiceError::UnknownAlgorithm { name: String::new(), known: vec![] }.code(),
            ServiceError::OutOfRange { what: "event", index: 0, len: 0 }.code(),
            ServiceError::invalid("").code(),
            ServiceError::UnsupportedVersion { got: 0, supported: 1 }.code(),
            ServiceError::protocol("").code(),
            ServiceError::Io { detail: String::new() }.code(),
            ServiceError::corrupt("").code(),
            ServiceError::failed("").code(),
        ];
        let mut dedup = all.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "codes must be distinct");
    }
}

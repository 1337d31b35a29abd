//! The request path under test and the two load generators that drive it.
//!
//! [`Target`] is what the clients talk to. The untraced run uses the real
//! `SessionManager::handle_line`. The traced run owns its sessions and
//! repeats, call for call, what `SessionManager::handle_line` and
//! `NetSession::handle` do — wire decode, session routing, backend handle,
//! read-view republish, wire encode — so that each of those public calls
//! can carry its own span.
//!
//! Load comes from two client threads: one closed-loop writer (a planner
//! waits for each reply before it sends the next change) and one
//! open-loop reader at a fixed rate (dashboards poll on their own clock),
//! whose latency is timed from each read's due time.
//!
//! The writer sends its writes in passes: the same writes, in the same
//! order, each pass on a session that starts from the same state. Every
//! write therefore has one latency per pass for the same work.

use crate::trace::{Span, Tracer, ROOT};
use ses_algorithms::service::{wire, Query, ReadView, Request, Response};
use ses_algorithms::{DurableService, SesService, SessionBackend, SessionManager};
use ses_core::error::ServiceError;
use ses_core::model::Instance;
use ses_core::parallel::Threads;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The session a request line without a `session` key goes to.
pub const DEFAULT_SESSION: &str = "default";

/// One session owned by the benchmark, published the way `NetSession`
/// does.
pub struct OwnedSession {
    backend: Mutex<SessionBackend>,
    published: RwLock<Arc<ReadView>>,
}

impl OwnedSession {
    fn new(backend: SessionBackend) -> Self {
        let published = RwLock::new(Arc::new(backend.service().read_view()));
        Self { backend: Mutex::new(backend), published }
    }

    /// Runs `f` on the backend under its writer lock.
    pub fn with_backend<T>(&self, f: impl FnOnce(&mut SessionBackend) -> T) -> T {
        f(&mut self.backend.lock().expect("backend lock poisoned"))
    }

    fn view(&self) -> Arc<ReadView> {
        Arc::clone(&self.published.read().expect("read-view lock poisoned"))
    }
}

/// Sessions owned by the benchmark, opened and closed the way
/// `SessionManager` does: each starts from a copy of the boot instance,
/// durable under `<state_dir>/<name>` when there is a state directory.
pub struct Owned {
    template: Instance,
    threads: Threads,
    state_dir: Option<PathBuf>,
    snapshot_every: u64,
    sessions: RwLock<BTreeMap<String, Arc<OwnedSession>>>,
}

impl Owned {
    /// Keeps `template` and opens the default session from it.
    ///
    /// # Errors
    /// A durable session that fails to open.
    pub fn new(
        template: Instance,
        threads: Threads,
        state_dir: Option<PathBuf>,
        snapshot_every: u64,
    ) -> Result<Self, ServiceError> {
        let owned = Self {
            template,
            threads,
            state_dir,
            snapshot_every,
            sessions: RwLock::new(BTreeMap::new()),
        };
        owned.open(DEFAULT_SESSION)?;
        Ok(owned)
    }

    fn open(&self, name: &str) -> Result<(), ServiceError> {
        let mut sessions = self.sessions.write().expect("session map lock poisoned");
        if sessions.contains_key(name) {
            return Ok(());
        }
        let inst = self.template.clone();
        let backend = match &self.state_dir {
            None => SessionBackend::Plain(SesService::new(inst).with_threads(self.threads)),
            Some(dir) => {
                let (svc, _) =
                    DurableService::open(&dir.join(name), inst, self.threads, self.snapshot_every)?;
                SessionBackend::Durable(svc)
            }
        };
        sessions.insert(name.to_string(), Arc::new(OwnedSession::new(backend)));
        Ok(())
    }

    /// The live session called `name`.
    pub fn session(&self, name: &str) -> Option<Arc<OwnedSession>> {
        self.sessions.read().expect("session map lock poisoned").get(name).cloned()
    }

    /// Answers the session-control requests; `None` for any other.
    fn control(&self, req: &Request) -> Option<Response> {
        let result = match req {
            Request::OpenSession { session } => {
                self.open(session).map(|()| Response::SessionOpened {
                    session: session.clone(),
                    durable: self.state_dir.is_some(),
                    recovered: false,
                })
            }
            Request::CloseSession { session } => {
                let mut sessions = self.sessions.write().expect("session map lock poisoned");
                match sessions.remove(session) {
                    Some(_) => Ok(Response::SessionClosed { session: session.clone() }),
                    None => Err(ServiceError::UnknownSession { name: session.clone() }),
                }
            }
            _ => return None,
        };
        Some(result.unwrap_or_else(|e| error_response(&e)))
    }
}

/// The sessions the clients send request lines to.
pub enum Target {
    /// The real in-process server entry point.
    Manager(Box<SessionManager>),
    /// The same steps, split so each can be traced.
    Owned(Box<Owned>),
}

/// Span name of the backend call for one request kind.
fn handle_span(req: &Request) -> &'static str {
    match req {
        Request::Schedule { algorithm, .. } => match algorithm.to_ascii_uppercase().as_str() {
            "ALG" => "sched.alg",
            "INC" => "sched.inc",
            "HOR" => "sched.hor",
            "HOR-I" | "HORI" | "HOR_I" => "sched.hor_i",
            _ => "sched.other",
        },
        Request::ApplyOps { .. } => "service.apply_ops",
        Request::Repair { .. } => "service.repair",
        Request::Query { query: Query::Event { .. } } => "read.event",
        Request::Query { query: Query::User { .. } } => "read.user",
        Request::Query { query: Query::Interval { .. } } => "read.interval",
        Request::Snapshot => "read.snapshot",
        _ => "service.other",
    }
}

fn error_response(e: &ServiceError) -> Response {
    Response::Error { code: e.code().to_string(), message: e.to_string() }
}

impl Target {
    /// Decodes a line and resolves the session it addresses, answering
    /// session control and routing errors directly.
    fn route(
        owned: &Owned,
        line: &str,
        tr: &mut Tracer,
        root: crate::trace::SpanId,
    ) -> Result<(Request, Arc<OwnedSession>), String> {
        let decoded = tr.span("wire.decode", root, || wire::decode_request_routed(line));
        let (req, session) = decoded.map_err(|e| wire::encode_response(&error_response(&e)))?;
        if let Some(resp) = owned.control(&req) {
            return Err(wire::encode_response(&resp));
        }
        let name = session.as_deref().unwrap_or(DEFAULT_SESSION);
        let s = owned.session(name).ok_or_else(|| {
            let e = ServiceError::UnknownSession { name: name.to_string() };
            wire::encode_response(&error_response(&e))
        })?;
        Ok((req, s))
    }

    /// Answers one mutating request line.
    pub fn write(&self, line: &str, tr: &mut Tracer) -> String {
        let owned = match self {
            Target::Manager(m) => return m.handle_line(line),
            Target::Owned(o) => o,
        };
        let root = tr.begin("write", ROOT);
        let (req, session) = match Self::route(owned, line, tr, root) {
            Ok(routed) => routed,
            Err(answer) => {
                tr.end(root);
                return answer;
            }
        };
        let resp = {
            let mut backend = session.backend.lock().expect("backend lock poisoned");
            let resp = tr.span(handle_span(&req), root, || backend.handle(&req));
            // NetSession republishes after every mutation, failed or not.
            tr.span("net.republish", root, || {
                let fresh = Arc::new(backend.service().read_view());
                *session.published.write().expect("read-view lock poisoned") = fresh;
            });
            resp
        };
        let out = tr.span("wire.encode", root, || wire::encode_response(&resp));
        tr.end(root);
        out
    }

    /// Answers one read-only request line.
    pub fn read(&self, line: &str, tr: &mut Tracer) -> String {
        let owned = match self {
            Target::Manager(m) => return m.handle_line(line),
            Target::Owned(o) => o,
        };
        let root = tr.begin("read", ROOT);
        let (req, session) = match Self::route(owned, line, tr, root) {
            Ok(routed) => routed,
            Err(answer) => {
                tr.end(root);
                return answer;
            }
        };
        let view = session.view();
        let resp = tr.span(handle_span(&req), root, || view.answer(&req));
        let out = tr.span("wire.encode", root, || wire::encode_response(&resp));
        tr.end(root);
        out
    }

    /// The owned session called `name`, in the traced run.
    pub fn owned_session(&self, name: &str) -> Option<Arc<OwnedSession>> {
        match self {
            Target::Owned(o) => o.session(name),
            Target::Manager(_) => None,
        }
    }
}

/// The wire line of `req` addressed to session `name`. The default
/// session's lines carry no `session` key, like a single-session client's.
pub fn routed(name: &str, req: &Request) -> String {
    if name == DEFAULT_SESSION {
        wire::encode_request(req)
    } else {
        wire::encode_request_for(name, req)
    }
}

/// Kinds of read the open-loop client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `Query::Event`.
    Event,
    /// `Query::User`.
    User,
    /// `Query::Interval`.
    Interval,
    /// `Snapshot`.
    Snapshot,
}

impl ReadKind {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            ReadKind::Event => "read.event",
            ReadKind::User => "read.user",
            ReadKind::Interval => "read.interval",
            ReadKind::Snapshot => "read.snapshot",
        }
    }
}

/// SplitMix64: a tiny seeded generator for the read mix.
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Index bounds for generated reads; every read stays in range whatever
/// churn the writer applies meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct ReadBounds {
    /// Event reads draw from `0..events`.
    pub events: usize,
    /// User reads draw from `0..users`.
    pub users: usize,
    /// Interval reads draw from `0..intervals`.
    pub intervals: usize,
}

/// The order the reader cycles through. From cheapest to dearest the
/// kinds are Interval and Snapshot (about equal), User, Event. With
/// Event twice and User three times, p50 falls in the middle of the User
/// reads and p90 two thirds of the way into the Event reads: inside one
/// kind each, where a window of reads holds enough of that kind for a
/// steady quantile.
const READ_CYCLE: [ReadKind; 7] = [
    ReadKind::Event,
    ReadKind::User,
    ReadKind::Snapshot,
    ReadKind::User,
    ReadKind::Interval,
    ReadKind::User,
    ReadKind::Event,
];

/// Read `i` of the mix: the kinds take turns in [`READ_CYCLE`], so each
/// kind's share is the same whatever the seed; the indices are random.
pub fn next_read(i: usize, mix: &mut Mix, b: ReadBounds) -> (ReadKind, usize, Request) {
    let kind = READ_CYCLE[i % READ_CYCLE.len()];
    let (index, req) = match kind {
        ReadKind::Event => {
            let i = mix.below(b.events);
            (i, Request::Query { query: Query::Event { event: i } })
        }
        ReadKind::User => {
            let i = mix.below(b.users);
            (i, Request::Query { query: Query::User { user: i } })
        }
        ReadKind::Interval => {
            let i = mix.below(b.intervals);
            (i, Request::Query { query: Query::Interval { interval: i } })
        }
        ReadKind::Snapshot => (0, Request::Snapshot),
    };
    (kind, index, req)
}

/// One pass of the writer.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The session this pass writes to; the reader reads it while the
    /// pass runs.
    pub session: String,
    /// Untimed requests, with their ledger labels, that bring the session
    /// up before the pass (open it, arm the repairer) and retire sessions
    /// of earlier passes. The first pass's session must already be open.
    pub prepare: Vec<(String, String)>,
    /// The timed writes, in order.
    pub writes: Vec<String>,
}

/// One answered write.
#[derive(Debug, Clone)]
pub struct WriteRecord {
    /// Send to reply.
    pub latency: Duration,
    /// The response line.
    pub response: String,
}

/// The writes of one pass and when they ran.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Every write of the pass, in send order.
    pub writes: Vec<WriteRecord>,
    /// First write sent, since the phase epoch.
    pub start: Duration,
    /// Last write answered, since the phase epoch.
    pub end: Duration,
}

/// One answered read.
#[derive(Debug, Clone)]
pub struct ReadRecord {
    /// What was asked.
    pub kind: ReadKind,
    /// Due time, since the phase epoch.
    pub due: Duration,
    /// Due time to reply.
    pub latency: Duration,
    /// How late the generator sent it after its due time.
    pub late: Duration,
    /// Whether the response answered the request that was asked.
    pub ok: bool,
    /// Response line length.
    pub bytes: usize,
}

/// What one measured phase produced.
#[derive(Debug)]
pub struct Phase {
    /// Every pass, in order.
    pub passes: Vec<PassRecord>,
    /// Each untimed preparation request's ledger label and response.
    pub prepared: Vec<(String, String)>,
    /// Every read, in send order.
    pub reads: Vec<ReadRecord>,
    /// The writer's spans (empty when untraced).
    pub writer_spans: Vec<Span>,
    /// The reader's spans (empty when untraced).
    pub reader_spans: Vec<Span>,
}

impl Phase {
    /// The reads due while pass `p`'s writes ran.
    pub fn reads_in(&self, p: usize) -> impl Iterator<Item = &ReadRecord> {
        let (start, end) = (self.passes[p].start, self.passes[p].end);
        self.reads.iter().filter(move |r| r.due >= start && r.due < end)
    }
}

/// Whether a read response answers the read that was asked.
fn read_ok(kind: ReadKind, index: usize, line: &str) -> bool {
    use ses_algorithms::service::QueryReply;
    match (kind, wire::decode_response(line)) {
        (ReadKind::Event, Ok(Response::Info { reply: QueryReply::Event { event, .. } })) => {
            event == index
        }
        (ReadKind::User, Ok(Response::Info { reply: QueryReply::User { user, .. } })) => {
            user == index
        }
        (
            ReadKind::Interval,
            Ok(Response::Info { reply: QueryReply::Interval { interval, .. } }),
        ) => interval == index,
        (ReadKind::Snapshot, Ok(Response::State { .. })) => true,
        _ => false,
    }
}

/// How long before a read's due time the reader stops sleeping and spins.
const SPIN_MARGIN: Duration = Duration::from_millis(5);

/// Load settings of one phase.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Reads per second the open-loop client is due to send.
    pub read_rate: f64,
    /// The phase lasts at least this long, and until the last write.
    pub min_duration: Duration,
    /// Read index bounds.
    pub bounds: ReadBounds,
    /// Seed of the read mix.
    pub read_seed: u64,
    /// Record spans.
    pub trace: bool,
}

/// Runs one measured phase. The writer runs `passes` in order: it sends a
/// pass's `prepare` requests, points the reader at the pass's session and
/// sends the pass's writes, each after the previous reply, calling
/// `after(pass, write, tracer)` after each write outside its timing and
/// `between(pass, tracer)` after each pass. The reader sends reads on its
/// schedule until the writer is done and `min_duration` has passed.
pub fn run_phase(
    target: &Target,
    passes: &[Pass],
    spec: LoadSpec,
    mut after: impl FnMut(usize, usize, &mut Tracer) + Send,
    mut between: impl FnMut(usize, &mut Tracer) + Send,
) -> Phase {
    let epoch = Instant::now();
    let writer_done = AtomicBool::new(false);
    let current = AtomicUsize::new(0);
    let tracer = |tag| if spec.trace { Tracer::new(epoch, tag) } else { Tracer::off() };
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut tr = tracer(1);
            let mut prepared = Vec::new();
            let mut records = Vec::with_capacity(passes.len());
            for (p, pass) in passes.iter().enumerate() {
                for (label, line) in &pass.prepare {
                    prepared.push((label.clone(), target.write(line, &mut Tracer::off())));
                }
                current.store(p, Ordering::SeqCst);
                let start = epoch.elapsed();
                let mut writes = Vec::with_capacity(pass.writes.len());
                for (i, line) in pass.writes.iter().enumerate() {
                    let t0 = Instant::now();
                    let response = target.write(line, &mut tr);
                    writes.push(WriteRecord { latency: t0.elapsed(), response });
                    after(p, i, &mut tr);
                }
                records.push(PassRecord { writes, start, end: epoch.elapsed() });
                between(p, &mut tr);
            }
            writer_done.store(true, Ordering::SeqCst);
            (records, prepared, tr.into_spans())
        });
        let reader = scope.spawn(|| {
            let mut tr = tracer(2);
            let mut mix = Mix::new(spec.read_seed);
            let period = Duration::from_secs_f64(1.0 / spec.read_rate);
            let start = Instant::now();
            let mut reads = Vec::new();
            for i in 0u32.. {
                let due = start + period * i;
                if writer_done.load(Ordering::SeqCst) && due >= start + spec.min_duration {
                    break;
                }
                let (kind, index, req) = next_read(i as usize, &mut mix, spec.bounds);
                // Sleep to just short of the due time, then spin. On a VM an
                // idle vCPU can take a host scheduler tick (4 ms) to wake,
                // which would otherwise show up as read latency.
                let now = Instant::now();
                if due > now + SPIN_MARGIN {
                    std::thread::sleep(due - now - SPIN_MARGIN);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let line = routed(&passes[current.load(Ordering::SeqCst)].session, &req);
                let sent = Instant::now();
                let response = target.read(&line, &mut tr);
                let done = Instant::now();
                reads.push(ReadRecord {
                    kind,
                    due: due - epoch,
                    latency: done - due,
                    late: sent.saturating_duration_since(due),
                    ok: read_ok(kind, index, &response),
                    bytes: response.len(),
                });
            }
            (reads, tr.into_spans())
        });
        let (passes, prepared, writer_spans) = writer.join().expect("writer thread panicked");
        let (reads, reader_spans) = reader.join().expect("reader thread panicked");
        Phase { passes, prepared, reads, writer_spans, reader_spans }
    })
}

/// Each write's fastest latency over the passes, in ms, in write order.
/// Every pass does the same work from the same state, so the fastest of
/// them is the write's cost with the least interference from outside the
/// program.
pub fn best_write_ms(passes: &[PassRecord]) -> Vec<f64> {
    let n = passes.iter().map(|p| p.writes.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| passes.iter().map(|p| ms(p.writes[i].latency)).fold(f64::INFINITY, f64::min))
        .collect()
}

/// `q`-quantile of `values` (nearest rank on a sorted copy); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

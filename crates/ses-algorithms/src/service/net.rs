//! `ses_net` — the multi-session network layer behind `ses serve --listen`.
//!
//! Promotes the single stdio session into a TCP server in which **many
//! named sessions live in one process**, each owning its own
//! [`SesService`] (live instance, scratch pool, warm repairer
//! caches) and — under `--state-dir` — its own [`DurableService`] in
//! `<state-dir>/<name>`. The wire protocol is the existing v1 JSON-lines
//! envelope with one forward-compatible addition: an optional `"session"`
//! envelope key naming the target session. Lines without the key address
//! the `default` session, which is why a committed v1 transcript replays
//! byte-identically against a networked server.
//!
//! ## Concurrency model: serialized writes, published reads
//!
//! Every session is a [`NetSession`]: a writer [`Mutex`] around the
//! backing service plus an immutable **published** [`ReadView`] behind an
//! `RwLock<Arc<…>>`. Mutating requests (`Schedule`/`ApplyOps`/`Repair`/
//! `Reset`, and the durable `Persist`/`Restore`) serialize on the writer
//! lock and republish a fresh view before releasing it; read-only
//! requests (`Query`/`Snapshot`, classified by [`is_read_only`]) clone
//! the published `Arc` and answer from it without ever touching the
//! writer lock. The consequences, which `tests/net_service.rs` proves:
//!
//! * **Reads never block on writes** — a `Query` during a long `Schedule`
//!   answers immediately from the pre-mutation view.
//! * **Reads never observe a torn state** — a view is an immutable value;
//!   the only transition is the atomic `Arc` swap, so every read answer
//!   is bit-identical to the serialized answer either before or after the
//!   in-flight mutation, never a blend.
//! * Both paths route through the same `query_on`/`snapshot_on`
//!   functions, so the equivalence is by construction, not by test alone.
//!
//! ## Shutdown state machine
//!
//! `SIGTERM`/`SIGINT` set one process-wide flag ([`request_shutdown`]).
//! The accept loop stops accepting and closes the listener; each
//! connection finishes the request it is answering (in-flight requests
//! drain), notices the flag at its next read tick, and closes; the server
//! then joins every connection thread, fsyncs every durable session's
//! write-ahead log, and returns cleanly — the process exits 0.
//!
//! ## Connection guards
//!
//! The stdio stdin guards apply per connection: `--max-line-bytes` bounds
//! what one line can buffer (over-cap lines are drained, answered with a
//! protocol `Error`, and the connection lives on), an idle timeout closes
//! connections that send nothing, and `--max-connections` answers excess
//! connects with exactly one protocol `Error` line before closing.

use super::durable::{DurableService, RecoveryReport};
use super::{is_read_only, wire, ReadView, Request, Response, SesService, SessionInfo};
use ses_core::error::ServiceError;
use ses_core::model::Instance;
use ses_core::parallel::Threads;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The session a request without a `"session"` envelope key addresses —
/// also the one session a server is guaranteed to have from boot.
pub const DEFAULT_SESSION: &str = "default";

/// Longest accepted session name (names become directory names under
/// `--state-dir`, so they are kept short and filesystem-safe).
pub const MAX_SESSION_NAME: usize = 64;

/// How often a blocked connection read wakes to poll the shutdown flag
/// and the idle clock.
const READ_TICK: Duration = Duration::from_millis(200);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(50);

// ---------------------------------------------------------------------------
// Shutdown flag + signal handling
// ---------------------------------------------------------------------------

/// Process-wide graceful-shutdown request flag (see the module docs).
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Requests a graceful shutdown of a running [`serve`] loop — exactly
/// what the `SIGTERM`/`SIGINT` handlers do, callable from tests.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Whether a graceful shutdown has been requested.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Async-signal-safe handler: one atomic store, nothing else.
extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the `SIGTERM`/`SIGINT` handlers via libc's `signal(2)` —
/// declared by hand because the workspace vendors no libc crate. Only the
/// `--listen` server installs these; stdio serve keeps the default
/// die-on-signal behavior (its EOF contract is the clean exit).
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    // SIGINT = 2, SIGTERM = 15 (POSIX-mandated values).
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

// ---------------------------------------------------------------------------
// Session backend (shared with stdio serve)
// ---------------------------------------------------------------------------

/// The two session flavors a serve loop can host: plain in-memory, or
/// durable (write-ahead logged + snapshotted under a state directory).
pub enum SessionBackend {
    /// In-memory session; state dies with the process.
    Plain(SesService),
    /// Durable session over a state directory (see [`DurableService`]).
    Durable(DurableService),
}

impl SessionBackend {
    /// Answers one request (the durable flavor logs mutations first).
    pub fn handle(&mut self, req: &Request) -> Response {
        match self {
            SessionBackend::Plain(s) => s.handle(req),
            SessionBackend::Durable(s) => s.handle(req),
        }
    }

    /// The serve-loop body: decode, handle, encode.
    pub fn handle_line(&mut self, line: &str) -> String {
        match self {
            SessionBackend::Plain(s) => s.handle_line(line),
            SessionBackend::Durable(s) => s.handle_line(line),
        }
    }

    /// The backing service, for state inspection.
    pub fn service(&self) -> &SesService {
        match self {
            SessionBackend::Plain(s) => s,
            SessionBackend::Durable(s) => s.service(),
        }
    }

    /// Delta ops applied over the session's lifetime.
    pub fn ops_applied(&self) -> u64 {
        self.service().ops_applied()
    }

    /// Whether this session persists to disk.
    pub fn is_durable(&self) -> bool {
        matches!(self, SessionBackend::Durable(_))
    }

    /// Forces a durable session's write-ahead log to stable storage; a
    /// plain session has nothing to sync. The graceful-shutdown wind-down
    /// calls this for every session.
    ///
    /// # Errors
    /// [`ServiceError::Io`] when the durable sync fails.
    pub fn sync_wal(&mut self) -> Result<(), ServiceError> {
        match self {
            SessionBackend::Plain(_) => Ok(()),
            SessionBackend::Durable(s) => s.sync_wal(),
        }
    }
}

// ---------------------------------------------------------------------------
// NetSession: serialized writes, published reads
// ---------------------------------------------------------------------------

/// One live named session: the writer-locked backend plus the published
/// read view (see the module docs for the locking discipline).
pub struct NetSession {
    writer: Mutex<SessionBackend>,
    published: RwLock<Arc<ReadView>>,
    durable: bool,
}

impl NetSession {
    /// Wraps a backend, publishing its current state as the first view.
    pub fn new(backend: SessionBackend) -> Self {
        let durable = backend.is_durable();
        let published = RwLock::new(Arc::new(backend.service().read_view()));
        Self { writer: Mutex::new(backend), published, durable }
    }

    /// Whether the session persists to disk.
    pub fn durable(&self) -> bool {
        self.durable
    }

    /// The currently published read view (an immutable value — hold it as
    /// long as you like without blocking anyone).
    pub fn view(&self) -> Arc<ReadView> {
        Arc::clone(&self.published.read().expect("read-view lock poisoned"))
    }

    /// Answers one request under the session's concurrency rules:
    /// read-only requests answer from the published view without touching
    /// the writer lock; everything else serializes on the writer lock and
    /// republishes before releasing it. Republication happens even when
    /// the request failed — a failed `ApplyOps` may still have applied a
    /// prefix, and the published view must never lag observable state.
    pub fn handle(&self, req: &Request) -> Response {
        if is_read_only(req) {
            return self.view().answer(req);
        }
        let mut writer = self.writer.lock().expect("session writer lock poisoned");
        let resp = writer.handle(req);
        let fresh = Arc::new(writer.service().read_view());
        *self.published.write().expect("read-view lock poisoned") = fresh;
        resp
    }

    /// One [`Response::Sessions`] row, from the published view.
    pub fn info(&self, name: &str) -> SessionInfo {
        let view = self.view();
        SessionInfo {
            session: name.to_string(),
            warm: view.warm(),
            ops_applied: view.ops_applied(),
            durable: self.durable,
        }
    }

    /// Locks the writer and fsyncs the WAL (shutdown wind-down).
    ///
    /// # Errors
    /// [`ServiceError::Io`] when the durable sync fails.
    pub fn sync_wal(&self) -> Result<(), ServiceError> {
        self.writer.lock().expect("session writer lock poisoned").sync_wal()
    }
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

/// What bringing one session up at boot found — the material for the
/// server's per-session stderr diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionBoot {
    /// The session's name.
    pub session: String,
    /// Whether it persists to the state directory.
    pub durable: bool,
    /// Whether existing on-disk state was recovered into it.
    pub recovered: bool,
    /// Log records replayed during recovery (0 for fresh sessions).
    pub replayed: u64,
    /// What opening the session's state directory did — torn tail and
    /// snapshot fallback included. `None` for an in-memory session and for
    /// a name that was already live.
    pub recovery: Option<RecoveryReport>,
}

/// The process-wide registry of named sessions: opens, closes, lists,
/// and routes requests. Shared across connection threads behind an
/// `Arc`; the map lock is held only for resolution, never while a
/// request executes.
pub struct SessionManager {
    /// Fresh sessions start from a copy of this boot instance.
    template: Instance,
    threads: Threads,
    state_dir: Option<PathBuf>,
    snapshot_every: u64,
    max_sessions: usize,
    sessions: RwLock<BTreeMap<String, Arc<NetSession>>>,
}

impl SessionManager {
    /// A manager whose sessions start from `template`. With `state_dir`,
    /// every session is durable under `<state_dir>/<name>`. Opens the
    /// `default` session immediately and — with a state directory —
    /// recovers **every** session found on disk, so a restarted server
    /// resumes exactly the sessions it was killed with. Returns the boot
    /// report, one row per session brought up, sorted by name.
    ///
    /// # Errors
    /// [`ServiceError::Io`] for an unusable state directory, any
    /// per-session recovery error, or [`ServiceError::InvalidArgument`]
    /// when the disk holds more sessions than `max_sessions`.
    pub fn new(
        template: Instance,
        threads: Threads,
        state_dir: Option<PathBuf>,
        snapshot_every: u64,
        max_sessions: usize,
    ) -> Result<(Self, Vec<SessionBoot>), ServiceError> {
        let manager = Self {
            template,
            threads,
            state_dir,
            snapshot_every,
            max_sessions: max_sessions.max(1),
            sessions: RwLock::new(BTreeMap::new()),
        };
        let mut names = vec![DEFAULT_SESSION.to_string()];
        if let Some(dir) = &manager.state_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| ServiceError::Io { detail: format!("{}: {e}", dir.display()) })?;
            let entries = std::fs::read_dir(dir)
                .map_err(|e| ServiceError::Io { detail: format!("{}: {e}", dir.display()) })?;
            for entry in entries {
                let entry = entry
                    .map_err(|e| ServiceError::Io { detail: format!("{}: {e}", dir.display()) })?;
                let is_dir = entry
                    .file_type()
                    .map_err(|e| ServiceError::Io { detail: format!("{}: {e}", dir.display()) })?
                    .is_dir();
                let name = entry.file_name().to_string_lossy().into_owned();
                if is_dir && validate_session_name(&name).is_ok() && !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        names.sort();
        if names.len() > manager.max_sessions {
            return Err(ServiceError::invalid(format!(
                "state directory holds {} sessions but --max-sessions is {}",
                names.len(),
                manager.max_sessions,
            )));
        }
        let mut boots = Vec::with_capacity(names.len());
        for name in &names {
            boots.push(manager.open(name)?);
        }
        Ok((manager, boots))
    }

    /// Opens (or re-resolves) the named session. Opening an existing name
    /// is idempotent: it reports the live session (`recovered: false`)
    /// rather than erroring, so client scripts can open-then-use without
    /// coordinating who goes first.
    ///
    /// # Errors
    /// [`ServiceError::InvalidArgument`] for a malformed name or when the
    /// session cap is reached; recovery errors for a durable session.
    pub fn open(&self, name: &str) -> Result<SessionBoot, ServiceError> {
        validate_session_name(name)?;
        let mut sessions = self.sessions.write().expect("session map lock poisoned");
        if let Some(existing) = sessions.get(name) {
            return Ok(SessionBoot {
                session: name.to_string(),
                durable: existing.durable(),
                recovered: false,
                replayed: 0,
                recovery: None,
            });
        }
        if sessions.len() >= self.max_sessions {
            return Err(ServiceError::invalid(format!(
                "session limit reached (--max-sessions {})",
                self.max_sessions
            )));
        }
        let (backend, boot) = match &self.state_dir {
            None => {
                let svc = SesService::new(self.template.clone()).with_threads(self.threads);
                let boot = SessionBoot {
                    session: name.to_string(),
                    durable: false,
                    recovered: false,
                    replayed: 0,
                    recovery: None,
                };
                (SessionBackend::Plain(svc), boot)
            }
            Some(dir) => {
                let (svc, report) = DurableService::open(
                    &dir.join(name),
                    self.template.clone(),
                    self.threads,
                    self.snapshot_every,
                )?;
                let boot = SessionBoot {
                    session: name.to_string(),
                    durable: true,
                    recovered: !report.fresh,
                    replayed: report.replayed,
                    recovery: Some(report),
                };
                (SessionBackend::Durable(svc), boot)
            }
        };
        sessions.insert(name.to_string(), Arc::new(NetSession::new(backend)));
        Ok(boot)
    }

    /// Closes the named session: the name stops resolving and the live
    /// state drops (a durable session's on-disk state stays, and a later
    /// open recovers it).
    ///
    /// # Errors
    /// [`ServiceError::UnknownSession`] when the name is not live.
    pub fn close(&self, name: &str) -> Result<(), ServiceError> {
        let mut sessions = self.sessions.write().expect("session map lock poisoned");
        match sessions.remove(name) {
            Some(_) => Ok(()),
            None => Err(ServiceError::UnknownSession { name: name.to_string() }),
        }
    }

    /// Resolves a live session.
    ///
    /// # Errors
    /// [`ServiceError::UnknownSession`] when the name is not live.
    pub fn resolve(&self, name: &str) -> Result<Arc<NetSession>, ServiceError> {
        let sessions = self.sessions.read().expect("session map lock poisoned");
        sessions
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownSession { name: name.to_string() })
    }

    /// Every live session's summary, sorted by name (the map is ordered).
    pub fn list(&self) -> Vec<SessionInfo> {
        let sessions = self.sessions.read().expect("session map lock poisoned");
        sessions.iter().map(|(name, s)| s.info(name)).collect()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.read().expect("session map lock poisoned").len()
    }

    /// Whether no session is live (only possible after closing `default`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Routes one request: session-control requests are served by the
    /// manager itself; everything else resolves the addressed session
    /// (`None` = [`DEFAULT_SESSION`]) and runs under its concurrency
    /// rules. A control request's own `session` envelope key is ignored —
    /// control is server-scoped, the target is in the request body.
    pub fn handle_routed(&self, session: Option<&str>, req: &Request) -> Response {
        match req {
            Request::OpenSession { session: name } => match self.open(name) {
                Ok(boot) => Response::SessionOpened {
                    session: boot.session,
                    durable: boot.durable,
                    recovered: boot.recovered,
                },
                Err(e) => Response::error(&e),
            },
            Request::CloseSession { session: name } => match self.close(name) {
                Ok(()) => Response::SessionClosed { session: name.clone() },
                Err(e) => Response::error(&e),
            },
            Request::ListSessions => Response::Sessions { sessions: self.list() },
            _ => {
                let name = session.unwrap_or(DEFAULT_SESSION);
                match self.resolve(name) {
                    Ok(s) => s.handle(req),
                    Err(e) => Response::error(&e),
                }
            }
        }
    }

    /// The serve-loop body: decode one request line (with its optional
    /// session address), route it, encode the response line. The response
    /// never echoes the session — per-connection request/response
    /// ordering already disambiguates, and it keeps single-session
    /// transcripts byte-identical to the stdio goldens.
    pub fn handle_line(&self, line: &str) -> String {
        let resp = match wire::decode_request_routed(line) {
            Ok((req, session)) => self.handle_routed(session.as_deref(), &req),
            Err(e) => Response::error(&e),
        };
        wire::encode_response(&resp)
    }

    /// Fsyncs every durable session's write-ahead log (shutdown
    /// wind-down), stopping at the first failure.
    ///
    /// # Errors
    /// [`ServiceError::Io`] when a sync fails.
    pub fn sync_all(&self) -> Result<(), ServiceError> {
        let sessions: Vec<Arc<NetSession>> = {
            let map = self.sessions.read().expect("session map lock poisoned");
            map.values().cloned().collect()
        };
        for s in sessions {
            s.sync_wal()?;
        }
        Ok(())
    }
}

/// Session names become directory names under `--state-dir`, so the
/// accepted alphabet is deliberately narrow: `[A-Za-z0-9_-]`, 1 to
/// [`MAX_SESSION_NAME`] chars. Rejects path traversal by construction.
///
/// # Errors
/// [`ServiceError::InvalidArgument`] describing the violation.
pub fn validate_session_name(name: &str) -> Result<(), ServiceError> {
    if name.is_empty() {
        return Err(ServiceError::invalid("session name must not be empty"));
    }
    if name.len() > MAX_SESSION_NAME {
        return Err(ServiceError::invalid(format!(
            "session name longer than {MAX_SESSION_NAME} chars"
        )));
    }
    if !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-') {
        return Err(ServiceError::invalid(format!(
            "session name '{name}' contains characters outside [A-Za-z0-9_-]"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// TCP server
// ---------------------------------------------------------------------------

/// `ses serve --listen` configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind (`host:port`; port 0 picks a free port, reported
    /// on stderr).
    pub listen: String,
    /// Session cap ([`SessionManager`]); opens beyond it error.
    pub max_sessions: usize,
    /// Concurrent-connection cap; excess connects are answered with one
    /// protocol `Error` line and closed.
    pub max_connections: usize,
    /// Per-connection request-line byte cap (the stdio guard, per
    /// socket).
    pub max_line_bytes: usize,
    /// Close connections idle longer than this (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Durable state directory; sessions live in `<dir>/<name>`.
    pub state_dir: Option<PathBuf>,
    /// Durable auto-snapshot cadence (WAL records per fold).
    pub snapshot_every: u64,
    /// Worker-thread default for every session.
    pub threads: Threads,
}

/// What a finished [`serve`] loop did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted and served (not counting over-cap rejects).
    pub connections: u64,
    /// Connections turned away at the `--max-connections` cap.
    pub rejected: u64,
}

/// Runs the TCP serve loop until a graceful-shutdown signal, then drains
/// (see the module docs for the state machine). Diagnostics go to stderr
/// with `[session:NAME]` prefixes where attributable; sockets carry
/// nothing but response lines.
///
/// # Errors
/// [`ServiceError::Io`] for bind/accept failures; per-session recovery
/// errors at boot.
pub fn serve(cfg: &NetConfig, template: Instance) -> Result<ServeReport, ServiceError> {
    SHUTDOWN.store(false, Ordering::SeqCst);
    install_signal_handlers();
    let (manager, boots) = SessionManager::new(
        template,
        cfg.threads,
        cfg.state_dir.clone(),
        cfg.snapshot_every,
        cfg.max_sessions,
    )?;
    for b in &boots {
        match &b.recovery {
            Some(report) => eprintln!("# ses serve [session:{}]: {}", b.session, report.banner()),
            None => eprintln!("# ses serve [session:{}]: fresh in-memory session", b.session),
        }
    }
    let manager = Arc::new(manager);
    let listener = TcpListener::bind(&cfg.listen)
        .map_err(|e| ServiceError::Io { detail: format!("bind {}: {e}", cfg.listen) })?;
    let local = listener
        .local_addr()
        .map_err(|e| ServiceError::Io { detail: format!("local_addr: {e}") })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServiceError::Io { detail: format!("set_nonblocking: {e}") })?;
    eprintln!(
        "# ses serve: listening on {local} ({} sessions, max {}, max {} connections)",
        boots.len(),
        cfg.max_sessions,
        cfg.max_connections,
    );

    let active = Arc::new(AtomicUsize::new(0));
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut report = ServeReport { connections: 0, rejected: 0 };
    while !shutdown_requested() {
        match listener.accept() {
            Ok((stream, peer)) => {
                if active.load(Ordering::SeqCst) >= cfg.max_connections {
                    report.rejected += 1;
                    eprintln!(
                        "# ses serve: rejecting {peer} (--max-connections {})",
                        cfg.max_connections
                    );
                    reject_connection(stream, cfg.max_connections);
                    continue;
                }
                report.connections += 1;
                active.fetch_add(1, Ordering::SeqCst);
                let manager = Arc::clone(&manager);
                let active = Arc::clone(&active);
                let (cap, idle) = (cfg.max_line_bytes, cfg.idle_timeout);
                handles.push(std::thread::spawn(move || {
                    serve_connection(stream, &manager, cap, idle);
                    active.fetch_sub(1, Ordering::SeqCst);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                handles.retain(|h| !h.is_finished());
                std::thread::sleep(ACCEPT_TICK);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(ServiceError::Io { detail: format!("accept: {e}") });
            }
        }
    }
    // Shutdown: stop accepting (listener drops), drain connections, sync.
    drop(listener);
    eprintln!(
        "# ses serve: shutdown requested; draining {} connection(s)",
        active.load(Ordering::SeqCst)
    );
    for h in handles {
        let _ = h.join();
    }
    manager.sync_all()?;
    eprintln!(
        "# ses serve: drained; {} connection(s) served, {} rejected; WALs synced; exiting",
        report.connections, report.rejected,
    );
    Ok(report)
}

/// Answers an over-cap connect with exactly one protocol `Error` line;
/// dropping the stream closes it.
fn reject_connection(mut stream: TcpStream, cap: usize) {
    let err = ServiceError::protocol(format!("connection limit reached (--max-connections {cap})"));
    let line = wire::encode_response(&Response::error(&err));
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

/// One connection's serve loop: the shared line loop over the socket
/// (with shutdown/idle ticks), routing each line through the manager.
/// Write failures end the connection silently — the peer is gone.
fn serve_connection(
    stream: TcpStream,
    manager: &SessionManager,
    max_line_bytes: usize,
    idle_timeout: Option<Duration>,
) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut out = stream;
    let _ = serve_lines(read_half, &mut out, max_line_bytes, idle_timeout, |line| {
        manager.handle_line(line)
    });
}

/// The serve loop both transports share: frames `input` into lines with a
/// `max_line_bytes` cap, skips blank lines and `#` comments, and writes
/// `handle`'s answer to every other line to `out`. An over-cap line is
/// drained, answered with a protocol `Error`, and the loop goes on. A
/// read failure or an idle timeout is answered with one `Error` line and
/// ends the loop; so do end of input and a shutdown request, unanswered
/// (a partial line is abandoned). Shutdown and idle ticks only fire on
/// inputs with a read timeout (sockets); stdin blocks until data or EOF.
///
/// Returns the number of lines answered (error answers included) and,
/// when the loop ended on a read failure (e.g. invalid UTF-8), that
/// failure.
///
/// # Errors
/// Write failures on `out` — the response channel is gone.
pub fn serve_lines<R: Read, W: Write>(
    input: R,
    out: &mut W,
    max_line_bytes: usize,
    idle_timeout: Option<Duration>,
    mut handle: impl FnMut(&str) -> String,
) -> std::io::Result<(u64, Option<ServiceError>)> {
    let mut reader = ConnReader::new(input);
    let mut answered = 0u64;
    loop {
        if shutdown_requested() {
            return Ok((answered, None));
        }
        let (resp, last, failure) = match reader.read_line(max_line_bytes, idle_timeout) {
            Ok(NetRead::Line(line)) => {
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                (handle(trimmed), false, None)
            }
            Ok(NetRead::Oversized) => {
                let err = ServiceError::protocol(format!(
                    "request line exceeds --max-line-bytes ({max_line_bytes})"
                ));
                (wire::encode_response(&Response::error(&err)), false, None)
            }
            Ok(NetRead::IdleTimeout) => {
                let err = ServiceError::protocol("idle timeout; closing connection");
                (wire::encode_response(&Response::error(&err)), true, None)
            }
            Ok(NetRead::Eof | NetRead::Shutdown) => return Ok((answered, None)),
            Err(e) => {
                let err = ServiceError::from(e);
                (wire::encode_response(&Response::error(&err)), true, Some(err))
            }
        };
        writeln!(out, "{resp}")?;
        out.flush()?;
        answered += 1;
        if last {
            return Ok((answered, failure));
        }
    }
}

/// What one framed line read produced.
enum NetRead {
    /// A complete line within the cap.
    Line(String),
    /// The line exceeded the cap; drained, not buffered.
    Oversized,
    /// The peer closed its write half.
    Eof,
    /// No bytes for the configured idle window.
    IdleTimeout,
    /// A graceful shutdown was requested mid-read.
    Shutdown,
}

/// Line framing over any reader: accumulates bytes across reads, enforcing
/// the line cap with bounded memory (an over-cap line is drained, not
/// buffered). On a read-timeout socket each timeout tick polls the
/// shutdown flag and the idle clock; a blocking reader never ticks.
struct ConnReader<R> {
    input: R,
    /// Bytes received but not yet returned as lines.
    pending: Vec<u8>,
    /// Prefix of `pending` already searched for a newline.
    scanned: usize,
    /// The line being read already blew the cap and is draining.
    overflowed: bool,
}

impl<R: Read> ConnReader<R> {
    fn new(input: R) -> Self {
        Self { input, pending: Vec::new(), scanned: 0, overflowed: false }
    }

    fn read_line(&mut self, cap: usize, idle: Option<Duration>) -> std::io::Result<NetRead> {
        let mut last_activity = Instant::now();
        loop {
            // A buffered complete line answers without touching the input.
            if let Some(pos) = self.pending[self.scanned..].iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=self.scanned + pos).collect();
                self.scanned = 0;
                line.pop(); // the newline
                if self.overflowed || line.len() > cap {
                    self.overflowed = false;
                    return Ok(NetRead::Oversized);
                }
                return finish_line(line).map(NetRead::Line);
            }
            self.scanned = self.pending.len();
            if self.pending.len() > cap {
                // Partial line already over the cap: switch to draining.
                self.pending.clear();
                self.scanned = 0;
                self.overflowed = true;
            }
            let mut chunk = [0u8; 8192];
            match self.input.read(&mut chunk) {
                Ok(0) => {
                    if self.overflowed {
                        self.overflowed = false;
                        return Ok(NetRead::Oversized);
                    }
                    if self.pending.is_empty() {
                        return Ok(NetRead::Eof);
                    }
                    // A final unterminated line still counts as a line.
                    self.scanned = 0;
                    let line = std::mem::take(&mut self.pending);
                    return finish_line(line).map(NetRead::Line);
                }
                Ok(n) => {
                    last_activity = Instant::now();
                    if self.overflowed {
                        // Drain until the newline; keep what follows it.
                        if let Some(pos) = chunk[..n].iter().position(|&b| b == b'\n') {
                            self.pending.extend_from_slice(&chunk[pos + 1..n]);
                            self.overflowed = false;
                            return Ok(NetRead::Oversized);
                        }
                    } else {
                        self.pending.extend_from_slice(&chunk[..n]);
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Read tick: poll shutdown, then the idle clock.
                    if shutdown_requested() {
                        return Ok(NetRead::Shutdown);
                    }
                    if let Some(limit) = idle {
                        if last_activity.elapsed() >= limit {
                            return Ok(NetRead::IdleTimeout);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    if shutdown_requested() {
                        return Ok(NetRead::Shutdown);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// UTF-8 conversion with the same error shape `BufRead::lines` produces,
/// and the same trailing-`\r` trim.
fn finish_line(mut buf: Vec<u8>) -> std::io::Result<String> {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Query;
    use ses_core::model::running_example;

    fn manager() -> SessionManager {
        SessionManager::new(running_example(), Threads::sequential(), None, 1024, 8)
            .expect("boot")
            .0
    }

    #[test]
    fn boot_opens_the_default_session() {
        let (m, boots) = SessionManager::new(running_example(), Threads::sequential(), None, 8, 8)
            .expect("boot");
        assert_eq!(boots.len(), 1);
        assert_eq!(boots[0].session, DEFAULT_SESSION);
        assert!(!boots[0].durable);
        assert_eq!(m.len(), 1);
        assert!(m.resolve(DEFAULT_SESSION).is_ok());
    }

    #[test]
    fn open_is_idempotent_and_capped() {
        let m = manager();
        assert!(!m.open("a").expect("open a").recovered);
        assert!(!m.open("a").expect("reopen a").recovered);
        assert_eq!(m.len(), 2);
        for i in 0..6 {
            m.open(&format!("cap{i}")).expect("fill");
        }
        let err = m.open("one-too-many").unwrap_err();
        assert_eq!(err.code(), "invalid-argument");
        assert!(err.to_string().contains("--max-sessions"), "{err}");
    }

    #[test]
    fn names_are_validated() {
        for bad in ["", "../escape", "a/b", "dot.dot", "x y", &"n".repeat(65)] {
            assert!(validate_session_name(bad).is_err(), "{bad:?}");
        }
        for good in ["a", "A-1_b", &"n".repeat(64)] {
            assert!(validate_session_name(good).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn unknown_sessions_answer_the_typed_error() {
        let m = manager();
        let resp = m.handle_routed(Some("ghost"), &Request::Snapshot);
        let Response::Error { code, message } = resp else { panic!("expected error") };
        assert_eq!(code, "unknown-session");
        assert!(message.contains("ghost"), "{message}");
        assert!(m.close("ghost").is_err());
    }

    #[test]
    fn routing_defaults_to_the_default_session() {
        let m = manager();
        let a = m.handle_routed(None, &Request::Snapshot);
        let b = m.handle_routed(Some(DEFAULT_SESSION), &Request::Snapshot);
        assert_eq!(a, b);
    }

    #[test]
    fn sessions_are_isolated() {
        let m = manager();
        m.open("a").expect("open a");
        m.open("b").expect("open b");
        let mutate = Request::Schedule {
            algorithm: "INC".into(),
            k: 2,
            threads: None,
            gate: false,
            profile: false,
            constraints: None,
        };
        let before_b = m.handle_routed(Some("b"), &Request::Snapshot);
        m.handle_routed(Some("a"), &mutate);
        // B's state is untouched by A's mutation.
        assert_eq!(m.handle_routed(Some("b"), &Request::Snapshot), before_b);
        let list = m.list();
        assert_eq!(
            list.iter().map(|s| s.session.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", DEFAULT_SESSION],
        );
    }

    #[test]
    fn close_then_reuse_errors_until_reopen() {
        let m = manager();
        m.open("tmp").expect("open");
        m.close("tmp").expect("close");
        let resp = m.handle_routed(Some("tmp"), &Request::Snapshot);
        assert!(matches!(resp, Response::Error { ref code, .. } if code == "unknown-session"));
        m.open("tmp").expect("reopen");
        assert!(matches!(m.handle_routed(Some("tmp"), &Request::Snapshot), Response::State { .. }));
    }

    #[test]
    fn published_view_answers_match_the_live_service() {
        let m = manager();
        let session = m.resolve(DEFAULT_SESSION).expect("resolve");
        let mutate = Request::Schedule {
            algorithm: "HOR".into(),
            k: 3,
            threads: None,
            gate: false,
            profile: false,
            constraints: None,
        };
        session.handle(&mutate);
        // The published view and a fresh serialized answer agree bit-for-bit.
        let q = Request::Query { query: Query::Event { event: 0 } };
        let via_view = session.view().answer(&q);
        let via_session = session.handle(&q);
        assert_eq!(wire::encode_response(&via_view), wire::encode_response(&via_session));
        let snap_view = session.view().answer(&Request::Snapshot);
        let snap_live = session.handle(&Request::Snapshot);
        assert_eq!(wire::encode_response(&snap_view), wire::encode_response(&snap_live));
    }

    #[test]
    fn handle_line_routes_sessions_and_hides_them_in_responses() {
        let m = manager();
        m.open("x").expect("open");
        let line = wire::encode_request_for("x", &Request::Snapshot);
        let resp = m.handle_line(&line);
        assert!(!resp.contains("session"), "{resp}");
        // Identical to what the default session would answer (same template).
        assert_eq!(resp, m.handle_line(&wire::encode_request(&Request::Snapshot)));
    }

    #[test]
    fn control_requests_route_through_handle_line() {
        let m = manager();
        let open = wire::encode_request(&Request::OpenSession { session: "wired".into() });
        let resp = m.handle_line(&open);
        assert!(resp.contains("SessionOpened"), "{resp}");
        assert!(resp.contains("\"durable\":false"), "{resp}");
        let list = m.handle_line(&wire::encode_request(&Request::ListSessions));
        assert!(list.contains("wired"), "{list}");
        let close = wire::encode_request(&Request::CloseSession { session: "wired".into() });
        assert!(m.handle_line(&close).contains("SessionClosed"));
    }

    #[test]
    fn durable_sessions_live_under_named_subdirs_and_recover() {
        let dir = std::env::temp_dir().join(format!("ses-net-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (m, boots) = SessionManager::new(
                running_example(),
                Threads::sequential(),
                Some(dir.clone()),
                4,
                8,
            )
            .expect("boot");
            assert!(boots.iter().all(|b| b.durable && !b.recovered));
            m.open("alpha").expect("open alpha");
            let mutate = Request::Schedule {
                algorithm: "INC".into(),
                k: 2,
                threads: None,
                gate: false,
                profile: false,
                constraints: None,
            };
            assert!(matches!(m.handle_routed(Some("alpha"), &mutate), Response::Scheduled { .. }));
            assert!(dir.join("alpha").is_dir());
            assert!(dir.join(DEFAULT_SESSION).is_dir());
        }
        // A new manager over the same dir recovers both sessions at boot.
        let (m, boots) =
            SessionManager::new(running_example(), Threads::sequential(), Some(dir.clone()), 4, 8)
                .expect("reboot");
        assert_eq!(boots.len(), 2);
        assert!(boots.iter().all(|b| b.durable && b.recovered));
        let names: Vec<_> = m.list().into_iter().map(|s| s.session).collect();
        assert_eq!(names, vec!["alpha", DEFAULT_SESSION]);
        m.sync_all().expect("sync");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_line_reader_matches_the_stdio_contract() {
        let data = b"short\nway too long for the cap\nafter\n";
        let mut r = ConnReader::new(&data[..]);
        assert!(matches!(r.read_line(10, None).unwrap(), NetRead::Line(l) if l == "short"));
        assert!(matches!(r.read_line(10, None).unwrap(), NetRead::Oversized));
        assert!(matches!(r.read_line(10, None).unwrap(), NetRead::Line(l) if l == "after"));
        assert!(matches!(r.read_line(10, None).unwrap(), NetRead::Eof));
    }
}

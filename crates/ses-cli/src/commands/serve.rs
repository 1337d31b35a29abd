//! `ses serve` — run the process as a long-lived session service.
//!
//! Builds one instance from the dataset flags (or loads one via
//! `--input`), then answers the versioned JSON-lines protocol on stdio:
//! one `{"v":1,"req":{...}}` request per stdin line, one
//! `{"v":1,"resp":{...}}` response per stdout line. Blank lines and `#`
//! comments are skipped (so request scripts can be annotated), malformed
//! lines come back as `Error` responses without ending the session, and
//! EOF ends the process with exit 0. A failed stdin *read* (e.g. invalid
//! UTF-8 in the byte stream) is answered the same way the protocol
//! answers everything else — one final `io`-coded `Error` response line —
//! and then ends the session as cleanly as EOF; only a broken stdout
//! aborts with exit 1, since the response channel itself is gone.
//!
//! Input is guarded against pathological lines: a request line longer
//! than `--max-line-bytes` (default 16 MiB) is never buffered whole — the
//! reader answers a protocol-coded `Error`, drains the rest of the line,
//! and the session continues. (Nesting depth is capped inside the wire
//! decoder itself.)
//!
//! With `--state-dir DIR` the session is **durable**: every mutating
//! request is appended to a write-ahead log (fsynced) before it is
//! applied, snapshots fold the log every `--snapshot-ops` records, and
//! startup auto-recovers — newest valid snapshot, log replay, torn final
//! record truncated. See `DurableService` for the recovery contract.
//!
//! With `--listen ADDR` the process becomes a **multi-session TCP
//! server** instead: many named sessions in one process, serialized
//! writes with concurrent lock-free reads per session, graceful
//! SIGTERM/SIGINT drain — see `ses_algorithms::service::net` for the
//! whole contract. The stdio path below is untouched by `--listen`
//! (and its golden transcripts stay byte-identical).
//!
//! All diagnostics go to **stderr** — stdout carries nothing but response
//! lines, which is what makes `ses serve < script | diff - golden` a
//! meaningful byte comparison. Session-attributable diagnostics carry a
//! `[session:NAME]` prefix so multiplexed logs stay readable.

use crate::args::Args;
use crate::commands::{
    apply_constraints_flag, dataset_from_flags, input_instance_flag, storage_from_flags,
};
use ses_algorithms::service::net::{self, DEFAULT_SESSION};
use ses_algorithms::{DurableService, NetConfig, SesService, SessionBackend};
use ses_core::error::{ServiceError, SERVICE_PROTOCOL_VERSION};
use ses_core::parallel::Threads;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Default `--max-line-bytes`: 16 MiB holds any reasonable `ApplyOps`
/// batch while bounding what one line can make the server buffer.
const DEFAULT_MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Default `--snapshot-ops`: fold the write-ahead log into a fresh
/// snapshot every this many logged requests.
const DEFAULT_SNAPSHOT_OPS: u64 = 1024;

/// Default `--max-sessions` for `--listen` servers.
const DEFAULT_MAX_SESSIONS: usize = 16;

/// Default `--max-connections` for `--listen` servers.
const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// Executes the `serve` subcommand.
pub fn exec(args: &Args) -> Result<(), ServiceError> {
    let (dataset, users, events, intervals, seed) = dataset_from_flags(args)?;
    let (storage, levels) = storage_from_flags(args, dataset, users)?;
    // No --threads flag = the ambient default (SES_THREADS or sequential),
    // so a thread-matrix CI can exercise the server at several widths —
    // responses are bit-identical for every count.
    let threads = match args.opt_flag("threads") {
        Some(_) => Threads::new(args.num_flag("threads", 0usize)?),
        None => Threads::default(),
    };
    let max_line_bytes = args.num_flag("max-line-bytes", DEFAULT_MAX_LINE_BYTES)?;
    if max_line_bytes == 0 {
        return Err(ServiceError::invalid("--max-line-bytes must be at least 1"));
    }
    if args.opt_flag("snapshot-ops").is_some() && args.opt_flag("state-dir").is_none() {
        return Err(ServiceError::invalid("--snapshot-ops requires --state-dir"));
    }
    for flag in ["max-sessions", "max-connections", "idle-timeout-ms"] {
        if args.opt_flag(flag).is_some() && args.opt_flag("listen").is_none() {
            return Err(ServiceError::invalid(format!("--{flag} requires --listen")));
        }
    }

    let mut inst = match input_instance_flag(args)? {
        Some(inst) => inst,
        None => dataset.build_with(users, events, intervals, seed, Some(storage), levels),
    };
    let (users, events, intervals) = (inst.num_users(), inst.num_events(), inst.num_intervals());
    let family = apply_constraints_flag(args, &mut inst, seed)?;
    let rules = inst.constraints.len();

    if let Some(addr) = args.opt_flag("listen") {
        // Networked multi-session serving: the net module owns the whole
        // loop (sessions, connections, shutdown); this function only
        // assembles its config from the flags.
        let max_sessions = args.num_flag("max-sessions", DEFAULT_MAX_SESSIONS)?;
        if max_sessions == 0 {
            return Err(ServiceError::invalid("--max-sessions must be at least 1"));
        }
        let max_connections = args.num_flag("max-connections", DEFAULT_MAX_CONNECTIONS)?;
        if max_connections == 0 {
            return Err(ServiceError::invalid("--max-connections must be at least 1"));
        }
        let idle_ms = args.num_flag("idle-timeout-ms", 0u64)?;
        let cfg = NetConfig {
            listen: addr.to_string(),
            max_sessions,
            max_connections,
            max_line_bytes,
            idle_timeout: (idle_ms > 0).then(|| Duration::from_millis(idle_ms)),
            state_dir: args.opt_flag("state-dir").map(PathBuf::from),
            snapshot_every: args.num_flag("snapshot-ops", DEFAULT_SNAPSHOT_OPS)?,
            threads,
        };
        eprintln!(
            "# ses serve: protocol v{SERVICE_PROTOCOL_VERSION}, dataset={} |U|={users} \
             |E|={events} |T|={intervals} seed={seed} threads={threads}{} — TCP multi-session mode",
            dataset.name(),
            match family {
                Some(f) => format!(" constraints={}({rules} rules)", f.name()),
                None => String::new(),
            },
        );
        net::serve(&cfg, inst)?;
        return Ok(());
    }

    let mut session = match args.opt_flag("state-dir") {
        None => SessionBackend::Plain(SesService::new(inst).with_threads(threads)),
        Some(dir) => {
            let snapshot_every = args.num_flag("snapshot-ops", DEFAULT_SNAPSHOT_OPS)?;
            let (svc, report) =
                DurableService::open(Path::new(dir), inst, threads, snapshot_every)?;
            eprintln!(
                "# ses serve [session:{DEFAULT_SESSION}]: state-dir={dir} {}",
                report.banner()
            );
            SessionBackend::Durable(svc)
        }
    };
    eprintln!(
        "# ses serve: protocol v{SERVICE_PROTOCOL_VERSION}, dataset={} |U|={users} |E|={events} \
         |T|={intervals} seed={seed} threads={threads}{} — one JSON request per line, EOF ends",
        dataset.name(),
        match family {
            Some(f) => format!(" constraints={}({rules} rules)", f.name()),
            None => String::new(),
        },
    );

    // Counts every answered line — including ones that failed wire
    // decoding, which the session's own counters do not see.
    let (answered, read_failure) = net::serve_lines(
        std::io::stdin().lock(),
        &mut std::io::stdout().lock(),
        max_line_bytes,
        None,
        |line| session.handle_line(line),
    )?;
    if let Some(err) = read_failure {
        // A failed read must not abort mid-session with no response: the
        // loop answered it with one io-coded Error line, and the session
        // winds down as cleanly as EOF. (Client scripts keyed on response
        // count stay in sync — every submitted line up to the bad byte has
        // been answered.)
        eprintln!(
            "# ses serve [session:{DEFAULT_SESSION}]: stdin read failed ({err}); ending session"
        );
    }
    eprintln!(
        "# ses serve [session:{DEFAULT_SESSION}]: EOF after {answered} request lines ({} ops \
         applied)",
        session.ops_applied()
    );
    Ok(())
}

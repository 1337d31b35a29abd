//! The durable session wrapper: `ses serve --state-dir` runs a
//! [`SesService`] behind this layer, which makes every acknowledged
//! state-mutating request crash-safe.
//!
//! ## Protocol
//!
//! State on disk is the generation-pair scheme of [`ses_core::durable`]:
//! `snapshot-G.ses` holds the folded [`SessionState`] at the moment
//! generation `G` began, `wal-G.log` appends the wire encoding of every
//! mutating request (`Schedule`, `ApplyOps`, `Repair`, `Reset`) handled
//! since — **before** the request is applied or answered, fsynced. A
//! record the log acknowledged therefore survives any crash, and replaying
//! the log through a fresh service reproduces the exact post-crash state:
//! requests are deterministic (no wall clock in any response), and even a
//! request that *failed* validation is logged, so replay reproduces the
//! same partial effects and the same error. Read-only requests (`Query`,
//! `Snapshot`) touch nothing an answer can observe and are not logged.
//!
//! ## Recovery
//!
//! [`DurableService::open`] walks snapshots newest-first until one passes
//! every integrity check (container checksums, layout version, checked
//! interest loads, instance validation, schedule replay — see
//! [`SesService::from_state`]), then replays the logs of that generation
//! and every newer one in order. A torn final log record (crash
//! mid-append) is truncated and forgotten — its request was never
//! acknowledged. Anything else wrong — a bit flip, a log that fails its
//! checksums in place, a missing log between generations — is a loud
//! [`ServiceError::Corrupt`]; recovery never guesses. When recovery had
//! to fall back past an unreadable newest snapshot it immediately
//! compacts, so the repaired state becomes the durable baseline.
//!
//! ## Compaction
//!
//! [`Request::Persist`] (or the `snapshot_every` auto-trigger) folds the
//! live state into a fresh snapshot generation, starts an empty log, and
//! retires generations older than the previous one — the two newest pairs
//! stay on disk so a snapshot that later turns out unreadable can fall
//! back losslessly.

use super::{wire, Request, Response, SesService, SessionState, Snapshot};
use ses_core::durable::{
    generations, read_snapshot, read_wal, retire_generations, snapshot_path, wal_generations,
    wal_path, write_snapshot, WalWriter,
};
use ses_core::error::ServiceError;
use ses_core::model::Instance;
use ses_core::parallel::Threads;
use std::path::{Path, PathBuf};

/// What [`DurableService::open`] (or a [`Request::Restore`] reload) did to
/// bring the session up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` when the state directory was empty and the session started
    /// fresh from the provided instance (nothing to recover).
    pub fresh: bool,
    /// The snapshot generation the state was loaded from (the generation
    /// just created, when `fresh`).
    pub generation: u64,
    /// Log records replayed on top of the snapshot.
    pub replayed: u64,
    /// Byte offset of a torn final log record that was found (and, outside
    /// [`inspect`], truncated). `None` when the log ended cleanly.
    pub torn: Option<u64>,
    /// Newer snapshot generations that failed validation and were fallen
    /// back past. Zero on a clean recovery.
    pub fell_back: u64,
}

impl RecoveryReport {
    /// The boot-banner detail both serve transports print:
    /// `fresh durable session (generation 0)`, or `recovered generation G
    /// (N log records replayed…); dataset flags ignored`, naming a
    /// truncated torn tail and any snapshots fallen back past.
    pub fn banner(&self) -> String {
        if self.fresh {
            return format!("fresh durable session (generation {})", self.generation);
        }
        let mut out = format!(
            "recovered generation {} ({} log records replayed",
            self.generation, self.replayed
        );
        if let Some(at) = self.torn {
            out.push_str(&format!(", torn final record truncated at byte {at}"));
        }
        if self.fell_back > 0 {
            out.push_str(&format!(", fell back past {} corrupt snapshot(s)", self.fell_back));
        }
        // Recovery wins over the dataset flags: the instance the session
        // answers from is the recovered one.
        out.push_str("); dataset flags ignored");
        out
    }
}

/// Read-only findings of [`inspect`] — what `ses recover` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Inspection {
    /// Snapshot generations present in the directory, ascending.
    pub generations: Vec<u64>,
    /// Write-ahead-log generations present, ascending.
    pub wal_generations: Vec<u64>,
    /// What a recovery from this directory would do.
    pub report: RecoveryReport,
    /// State summary of the recovered session.
    pub snapshot: Snapshot,
}

/// A [`SesService`] whose acknowledged mutations survive crashes. See the
/// module docs for the on-disk protocol.
#[derive(Debug)]
pub struct DurableService {
    svc: SesService,
    dir: PathBuf,
    /// Generation whose log new records append to.
    generation: u64,
    wal: WalWriter,
    /// Records in the current log (compaction trigger).
    wal_records: u64,
    /// Auto-compact when the log reaches this many records (0 = only on
    /// explicit `Persist`).
    snapshot_every: u64,
    default_threads: Threads,
}

/// The result of loading a state directory into a fresh service.
struct Loaded {
    svc: SesService,
    generation: u64,
    replayed: u64,
    torn: Option<u64>,
    fell_back: u64,
    /// Records in the newest replayed log (seed for the compaction
    /// trigger).
    newest_records: u64,
}

impl DurableService {
    /// Opens (creating if needed) the state directory and brings up the
    /// session: recovery when snapshots exist, otherwise a fresh session
    /// over `inst` with its generation-0 snapshot written immediately.
    ///
    /// # Errors
    /// [`ServiceError::Io`] on filesystem failures, [`ServiceError::Corrupt`]
    /// when state exists but no uncorrupted recovery path does.
    pub fn open(
        dir: &Path,
        inst: Instance,
        default_threads: Threads,
        snapshot_every: u64,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ServiceError::Io { detail: format!("{}: {e}", dir.display()) })?;
        if generations(dir)?.is_empty() {
            if !wal_generations(dir)?.is_empty() {
                return Err(ServiceError::corrupt(format!(
                    "state dir {}: write-ahead logs present but no snapshot",
                    dir.display()
                )));
            }
            let svc = SesService::new(inst).with_threads(default_threads);
            write_snapshot(dir, 0, &state_bytes(&svc)?)?;
            let wal = WalWriter::open(&wal_path(dir, 0), None)?;
            let this = Self {
                svc,
                dir: dir.to_path_buf(),
                generation: 0,
                wal,
                wal_records: 0,
                snapshot_every,
                default_threads,
            };
            let report = RecoveryReport {
                fresh: true,
                generation: 0,
                replayed: 0,
                torn: None,
                fell_back: 0,
            };
            return Ok((this, report));
        }
        let (svc, generation, wal, wal_records, report) = attach(dir, default_threads)?;
        let mut this = Self {
            svc,
            dir: dir.to_path_buf(),
            generation,
            wal,
            wal_records,
            snapshot_every,
            default_threads,
        };
        if report.fell_back > 0 {
            // The newest snapshot was unreadable; make the repaired state
            // the durable baseline right away (and retire the bad file).
            this.compact()?;
        }
        Ok((this, report))
    }

    /// The wrapped session.
    pub fn service(&self) -> &SesService {
        &self.svc
    }

    /// The generation whose log new records currently append to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Folds the live state into snapshot generation `G+1`, starts that
    /// generation's empty log, and retires generations older than the one
    /// just left (keeping two pairs). Returns `(new_generation,
    /// records_folded)`.
    ///
    /// # Errors
    /// [`ServiceError::Io`] on filesystem failures. The old generation
    /// pair stays intact until the new snapshot is durable, so a failure
    /// (or a crash) at any point loses nothing.
    pub fn compact(&mut self) -> Result<(u64, u64), ServiceError> {
        let folded = self.wal_records;
        let prev = self.generation;
        // Strictly above every file on disk: after a fallback recovery the
        // corrupt newer generation's files still exist, and reusing their
        // numbers would resurrect stale log records on the next recovery.
        let mut next = self.generation;
        for g in generations(&self.dir)?.into_iter().chain(wal_generations(&self.dir)?) {
            next = next.max(g);
        }
        next += 1;
        write_snapshot(&self.dir, next, &state_bytes(&self.svc)?)?;
        self.wal = WalWriter::open(&wal_path(&self.dir, next), None)?;
        self.generation = next;
        self.wal_records = 0;
        retire_generations(&self.dir, prev)?;
        Ok((next, folded))
    }

    /// Drops the in-memory state and re-runs recovery from disk — the
    /// [`Request::Restore`] path.
    ///
    /// # Errors
    /// As [`open`](Self::open); on error the live state is untouched.
    pub fn reload(&mut self) -> Result<RecoveryReport, ServiceError> {
        let (svc, generation, wal, wal_records, report) = attach(&self.dir, self.default_threads)?;
        self.svc = svc;
        self.generation = generation;
        self.wal = wal;
        self.wal_records = wal_records;
        if report.fell_back > 0 {
            self.compact()?;
        }
        Ok(report)
    }

    /// Answers one request, making any state mutation durable **before**
    /// it is applied or acknowledged. `Persist`/`Restore` are served here
    /// (compaction / reload); read-only requests pass straight through. A
    /// durability I/O failure comes back as a [`Response::Error`] and the
    /// request is not applied.
    pub fn handle(&mut self, req: &Request) -> Response {
        match req {
            Request::Persist => match self.compact() {
                Ok((generation, folded)) => Response::Persisted { generation, folded },
                Err(e) => Response::error(&e),
            },
            Request::Restore => match self.reload() {
                Ok(r) => Response::Restored { generation: r.generation, replayed: r.replayed },
                Err(e) => Response::error(&e),
            },
            Request::Schedule { .. }
            | Request::ApplyOps { .. }
            | Request::Repair { .. }
            | Request::Reset => {
                if let Err(e) = self.wal.append(wire::encode_request(req).as_bytes()) {
                    return Response::error(&e);
                }
                self.wal_records += 1;
                let resp = self.svc.handle(req);
                if self.snapshot_every > 0 && self.wal_records >= self.snapshot_every {
                    if let Err(e) = self.compact() {
                        // The record is durable in the log either way, but
                        // a session that can no longer write snapshots
                        // should say so rather than grow the log silently.
                        return Response::error(&e);
                    }
                }
                resp
            }
            Request::Query { .. } | Request::Snapshot => self.svc.handle(req),
            // Session control is the network layer's business; a lone
            // durable session answers with the same typed error a plain
            // service does (and logs nothing — no state changed).
            Request::OpenSession { .. } | Request::CloseSession { .. } | Request::ListSessions => {
                self.svc.handle(req)
            }
        }
    }

    /// Forces the write-ahead log to stable storage — the graceful-
    /// shutdown wind-down. Every acknowledged mutation is already fsynced
    /// individually, so this only matters as a belt-and-braces barrier
    /// before the process exits.
    ///
    /// # Errors
    /// [`ServiceError::Io`] when the sync fails.
    pub fn sync_wal(&mut self) -> Result<(), ServiceError> {
        self.wal.sync()
    }

    /// The serve-loop body, like [`SesService::handle_line`] but durable.
    pub fn handle_line(&mut self, line: &str) -> String {
        let resp = match wire::decode_request(line) {
            Ok(req) => self.handle(&req),
            Err(e) => Response::error(&e),
        };
        wire::encode_response(&resp)
    }
}

/// Read-only dry run of recovery for `ses recover`: reports what a real
/// recovery would load and replay **without** truncating torn tails,
/// compacting, or writing anything at all.
///
/// # Errors
/// Exactly the errors a real recovery would surface.
pub fn inspect(dir: &Path, default_threads: Threads) -> Result<Inspection, ServiceError> {
    let gens = generations(dir)?;
    let wals = wal_generations(dir)?;
    let loaded = load(dir, default_threads)?;
    Ok(Inspection {
        generations: gens,
        wal_generations: wals,
        snapshot: loaded.svc.snapshot(),
        report: RecoveryReport {
            fresh: false,
            generation: loaded.generation,
            replayed: loaded.replayed,
            torn: loaded.torn,
            fell_back: loaded.fell_back,
        },
    })
}

/// [`load`] plus the write-side attach: truncate the torn tail (if any)
/// and open the newest log for appending.
fn attach(
    dir: &Path,
    default_threads: Threads,
) -> Result<(SesService, u64, WalWriter, u64, RecoveryReport), ServiceError> {
    let loaded = load(dir, default_threads)?;
    // New records append to the newest existing log so replay order is
    // preserved; when the newest log belongs to a *newer* generation than
    // the snapshot we recovered from (fallback), the caller compacts
    // immediately and never appends here.
    let append_gen = wal_generations(dir)?.into_iter().max().unwrap_or(loaded.generation);
    let append_gen = append_gen.max(loaded.generation);
    let wal = WalWriter::open(&wal_path(dir, append_gen), loaded.torn)?;
    let report = RecoveryReport {
        fresh: false,
        generation: loaded.generation,
        replayed: loaded.replayed,
        torn: loaded.torn,
        fell_back: loaded.fell_back,
    };
    Ok((loaded.svc, loaded.generation, wal, loaded.newest_records, report))
}

/// The recovery core (pure read): newest valid snapshot, then replay every
/// log of that generation and newer, in order.
fn load(dir: &Path, default_threads: Threads) -> Result<Loaded, ServiceError> {
    let gens = generations(dir)?;
    if gens.is_empty() {
        return Err(ServiceError::corrupt(format!(
            "state dir {}: no snapshot to recover from",
            dir.display()
        )));
    }
    // Walk newest-first; a snapshot that fails any integrity check falls
    // back to its predecessor (its log is still on disk, so nothing is
    // lost). I/O failures are not corruption and stop the walk.
    let mut first_err: Option<ServiceError> = None;
    let mut fell_back = 0u64;
    let mut chosen: Option<(u64, SesService)> = None;
    for &g in gens.iter().rev() {
        let attempt = read_snapshot(&snapshot_path(dir, g)).and_then(|payload| {
            let text = std::str::from_utf8(&payload).map_err(|_| {
                ServiceError::corrupt(format!("snapshot generation {g}: payload is not UTF-8"))
            })?;
            let state: SessionState = serde_json::from_str(text).map_err(|e| {
                ServiceError::corrupt(format!("snapshot generation {g}: bad session state: {e}"))
            })?;
            SesService::from_state(state, default_threads)
        });
        match attempt {
            Ok(svc) => {
                chosen = Some((g, svc));
                break;
            }
            Err(e @ ServiceError::Corrupt { .. }) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
                fell_back += 1;
            }
            Err(e) => return Err(e),
        }
    }
    let Some((base, mut svc)) = chosen else {
        return Err(first_err.expect("at least one generation was attempted"));
    };

    let wal_gens: Vec<u64> = wal_generations(dir)?.into_iter().filter(|&g| g >= base).collect();
    if let Some(&last) = wal_gens.last() {
        // Replay must cover every generation from the snapshot onward
        // contiguously: a hole (including a missing base log while newer
        // logs exist) means acknowledged records are gone, which silent
        // replay would paper over. A base log missing with *nothing*
        // newer is the legitimate crash window between a compaction's
        // snapshot write and its log creation — no records existed yet.
        for g in base..=last {
            if !wal_gens.contains(&g) {
                return Err(ServiceError::corrupt(format!(
                    "state dir {}: log for generation {g} is missing",
                    dir.display()
                )));
            }
        }
    }
    let newest = wal_gens.last().copied();
    let mut replayed = 0u64;
    let mut torn = None;
    let mut newest_records = 0u64;
    for &g in &wal_gens {
        let path = wal_path(dir, g);
        let contents = read_wal(&path)?;
        if let Some(t) = contents.torn_at {
            if Some(g) == newest {
                // A crash mid-append tore the final record; it was never
                // acknowledged, so truncating it loses nothing.
                torn = Some(t);
            } else {
                return Err(ServiceError::corrupt(format!(
                    "wal {}: torn tail in a non-final log",
                    path.display()
                )));
            }
        }
        for record in &contents.records {
            let line = std::str::from_utf8(record).map_err(|_| {
                ServiceError::corrupt(format!("wal {}: record is not UTF-8", path.display()))
            })?;
            let req = wire::decode_request(line).map_err(|e| {
                ServiceError::corrupt(format!(
                    "wal {}: record is not a request: {e}",
                    path.display()
                ))
            })?;
            // Replaying through the normal dispatch reproduces the exact
            // live history — including requests that failed validation
            // (their error, and any partial effect, is deterministic).
            let _ = svc.handle(&req);
            replayed += 1;
        }
        if Some(g) == newest {
            newest_records = contents.records.len() as u64;
        }
    }
    Ok(Loaded { svc, generation: base, replayed, torn, fell_back, newest_records })
}

/// Serializes the session for a snapshot payload.
fn state_bytes(svc: &SesService) -> Result<Vec<u8>, ServiceError> {
    serde_json::to_string(&svc.to_state())
        .map(String::into_bytes)
        .map_err(|e| ServiceError::Io { detail: format!("serialize session state: {e}") })
}

//! Durability proofs for the session service: state round trips, crash
//! recovery, and the adversarial fault-injection suite.
//!
//! The load-bearing claim (ROADMAP item 5): for a seeded session, every
//! byte of the on-disk state — the snapshot container *and* the
//! write-ahead log — can be truncated or bit-flipped at **every byte
//! boundary**, and recovery either restores a state that answers the
//! remainder of the golden transcript **byte-identically**, or fails
//! loudly with a typed `corrupt` error. Never a silent wrong answer.
//!
//! Truncation is the crash model (a torn tail is exactly what a crash
//! mid-append leaves): it may lose a *suffix* of un-folded records, and
//! the recovered session must then answer from precisely that earlier
//! point in the transcript. Bit flips are the disk-rot model: all bytes
//! are present but some lie, and recovery must refuse.

use serde_json::Value;
use ses_algorithms::service::durable::{inspect, DurableService};
use ses_algorithms::service::{wire, Query, Request, Response, SesService};
use ses_core::delta::{DeltaOp, NewUser};
use ses_core::durable::{generations, read_wal, wal_generations};
use ses_core::error::ServiceError;
use ses_core::model::{Instance, InterestMatrix, StorageKind};
use ses_core::parallel::Threads;
use ses_core::EventId;
use ses_datasets::ops::{self, OpStreamParams};
use ses_datasets::params::{ActivityModel, InterestModel, SyntheticParams};
use ses_datasets::synthetic;
use std::fs;
use std::path::{Path, PathBuf};

/// One explicit thread count everywhere: recovery must be driven with the
/// same determinism knobs as the original run (the repo-wide thread
/// invariance tests cover the rest).
#[allow(non_snake_case)]
fn T1() -> Threads {
    Threads::new(1)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ses-durable-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_instance() -> Instance {
    synthetic::generate(&SyntheticParams {
        k: 0,
        num_events: 5,
        num_intervals: 3,
        num_users: 12,
        competing_per_interval: (1, 2),
        num_locations: 3,
        resources: 8.0,
        max_required_resources: 4.0,
        interest: InterestModel::Uniform,
        activity: ActivityModel::Uniform,
        seed: 0xD0B,
        interest_levels: 0,
    })
}

/// The seeded transcript the fault suite replays: every mutating request
/// kind (including one that fails validation — failed requests are logged
/// too, so replay reproduces the error and any partial effect), with
/// read-only requests interleaved.
fn transcript() -> Vec<Request> {
    let base = base_instance();
    let stream = ops::generate(
        &base,
        &OpStreamParams::default().with_ops(8).with_churn(0.25).with_seed(0xFA11),
    );
    let chunk = |range: std::ops::Range<usize>| stream[range].to_vec();
    vec![
        Request::Schedule {
            algorithm: "INC".into(),
            k: 3,
            threads: None,
            gate: false,
            profile: false,
            constraints: None,
        },
        Request::Query { query: Query::Event { event: 0 } },
        Request::ApplyOps { ops: chunk(0..3), window: None },
        Request::Snapshot,
        Request::Repair { k: 3, threads: None, gate: false },
        Request::ApplyOps { ops: chunk(3..5), window: None },
        Request::Query { query: Query::User { user: 1 } },
        Request::ApplyOps { ops: chunk(5..7), window: Some(2) },
        // A request that fails validation: the dangling id is rejected,
        // the batch before it sticks (op-at-a-time atomicity).
        Request::ApplyOps {
            ops: vec![DeltaOp::RemoveEvent { event: EventId::new(9999) }],
            window: None,
        },
        Request::Snapshot,
        Request::Schedule {
            algorithm: "HOR".into(),
            k: 2,
            threads: None,
            gate: false,
            profile: false,
            constraints: None,
        },
        Request::Reset,
        Request::Repair { k: 2, threads: None, gate: false },
        Request::ApplyOps { ops: chunk(7..8), window: None },
        Request::Snapshot,
    ]
}

fn is_mutating(req: &Request) -> bool {
    matches!(
        req,
        Request::Schedule { .. }
            | Request::ApplyOps { .. }
            | Request::Repair { .. }
            | Request::Reset
    )
}

/// Request index to resume from when exactly `m` mutating requests
/// survived on disk: right after the `m`-th mutating request (read-only
/// requests in between are stateless either side of the cut).
fn resume_index(reqs: &[Request], m: usize) -> usize {
    if m == 0 {
        return 0;
    }
    let mut seen = 0;
    for (i, r) in reqs.iter().enumerate() {
        if is_mutating(r) {
            seen += 1;
            if seen == m {
                return i + 1;
            }
        }
    }
    panic!("{m} mutating requests requested, transcript has {seen}");
}

/// Runs the whole transcript on a fresh durable session in `dir`,
/// returning the encoded response per request (the golden bytes).
fn run_golden(dir: &Path, reqs: &[Request], snapshot_every: u64) -> Vec<String> {
    let (mut svc, report) =
        DurableService::open(dir, base_instance(), T1(), snapshot_every).unwrap();
    assert!(report.fresh, "expected an empty state dir");
    reqs.iter().map(|r| wire::encode_response(&svc.handle(r))).collect()
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

// ---------------------------------------------------------------------
// State round trip
// ---------------------------------------------------------------------

/// `to_state` → JSON → `from_state` at every point of the transcript: the
/// rebuilt session answers the remaining requests byte-identically, cold
/// and warm alike.
#[test]
fn session_state_roundtrips_at_every_transcript_point() {
    let reqs = transcript();
    for split in 0..=reqs.len() {
        let mut original = SesService::new(base_instance()).with_threads(T1());
        for r in &reqs[..split] {
            original.handle(r);
        }
        let json = serde_json::to_string(&original.to_state()).unwrap();
        let state = serde_json::from_str(&json).unwrap();
        let mut rebuilt = SesService::from_state(state, T1()).unwrap();
        for (i, r) in reqs[split..].iter().enumerate() {
            let a = wire::encode_response(&original.handle(r));
            let b = wire::encode_response(&rebuilt.handle(r));
            assert_eq!(a, b, "split {split}, request {i}: rebuilt session diverged");
        }
    }
}

/// The two committed session-state payloads: a cold running-example
/// session after one `Schedule`, and a warm one after `Repair` k=3 and one
/// `ApplyOps`. Each pairs the golden file with the requests that produce it.
fn golden_sessions() -> [(&'static str, Vec<Request>); 2] {
    let schedule = Request::Schedule {
        algorithm: "INC".into(),
        k: 3,
        threads: None,
        gate: false,
        profile: false,
        constraints: None,
    };
    let repair = Request::Repair { k: 3, threads: None, gate: false };
    let shift = Request::ApplyOps {
        ops: vec![DeltaOp::ShiftInterest { event: EventId::new(0), user: 1, interest: 0.9 }],
        window: None,
    };
    [("session_state_cold", vec![schedule]), ("session_state_warm", vec![repair, shift])]
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name)
}

/// The live running-example session `reqs` leave behind.
fn live_session(reqs: &[Request]) -> SesService {
    let mut live = SesService::new(ses_core::model::running_example()).with_threads(T1());
    for r in reqs {
        live.handle(r);
    }
    live
}

/// The probes a loaded session must answer exactly as the live one does.
fn assert_answers_like(name: &str, loaded: &mut SesService, live: &mut SesService) {
    for probe in [Request::Snapshot, Request::Repair { k: 3, threads: None, gate: false }] {
        assert_eq!(
            wire::encode_response(&loaded.handle(&probe)),
            wire::encode_response(&live.handle(&probe)),
            "{name}: loaded session diverged on {probe:?}"
        );
    }
}

/// The snapshot payload is pinned byte for byte: the live session writes
/// exactly the committed state, and a session loaded from the committed
/// state answers `Snapshot` and `Repair` exactly as the live one does.
#[test]
fn session_state_matches_the_committed_payloads() {
    for (name, reqs) in golden_sessions() {
        let mut live = live_session(&reqs);
        let golden = fs::read_to_string(golden_path(&format!("{name}.json"))).unwrap();
        let written = serde_json::to_string(&live.to_state()).unwrap();
        assert_eq!(written, golden.trim_end(), "{name}: session state bytes drifted");

        let mut loaded = SesService::from_state(serde_json::from_str(&golden).unwrap(), T1())
            .unwrap_or_else(|e| panic!("{name}: committed state must load: {e}"));
        assert_answers_like(name, &mut loaded, &mut live);
    }
}

/// The layout-1 payloads an earlier build committed still load: the loaded
/// session writes exactly the layout-2 golden (so the upgrade is the whole
/// v1 → v2 difference) and answers `Snapshot` and `Repair` exactly as the
/// live session does.
#[test]
fn layout_1_payloads_still_load() {
    for (name, reqs) in golden_sessions() {
        let mut live = live_session(&reqs);
        let v1 = fs::read_to_string(golden_path(&format!("{name}_v1.json"))).unwrap();
        assert!(v1.starts_with(r#"{"version":1,"#), "{name}: fixture is not layout 1");
        let mut loaded = SesService::from_state(serde_json::from_str(&v1).unwrap(), T1())
            .unwrap_or_else(|e| panic!("{name}: layout-1 state must load: {e}"));
        let v2 = fs::read_to_string(golden_path(&format!("{name}.json"))).unwrap();
        assert_eq!(serde_json::to_string(&loaded.to_state()).unwrap(), v2.trim_end());
        assert_answers_like(name, &mut loaded, &mut live);
    }
}

/// Recovers a state directory whose only snapshot holds `payload`, the
/// way `ses serve --state-dir` would.
fn recover_payload(tag: &str, payload: &str) -> Result<DurableService, ServiceError> {
    let dir = tmpdir(tag);
    ses_core::durable::write_snapshot(&dir, 0, payload.as_bytes()).unwrap();
    let out = DurableService::open(&dir, base_instance(), T1(), 0).map(|(svc, _)| svc);
    fs::remove_dir_all(&dir).unwrap();
    out
}

/// The object member `key` of a parsed payload.
fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Object(fields) => {
            &mut fields.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
        }
        other => panic!("{other:?} is not an object"),
    }
}

/// A layout-1 payload whose instance has no owner, or two, is corrupt.
#[test]
fn layout_1_payloads_need_exactly_one_instance_owner() {
    let parse = |name| -> Value {
        serde_json::from_str(&fs::read_to_string(golden_path(name)).unwrap()).unwrap()
    };
    let inst = member(&mut parse("session_state_cold_v1.json"), "inst").clone();
    let Value::Object(warm) = parse("session_state_warm_v1.json") else {
        unreachable!("payloads are objects")
    };
    let mut two_owners = warm.clone();
    two_owners.insert(1, ("inst".to_string(), inst));
    let no_owner: Vec<_> = warm.into_iter().filter(|(k, _)| k != "stream").collect();
    for (what, fields) in [("two owners", two_owners), ("no owner", no_owner)] {
        let payload = serde_json::to_string(&Value::Object(fields)).unwrap();
        let err = recover_payload("owners", &payload).unwrap_err();
        assert_eq!(err.code(), "corrupt", "{what}: {err}");
        assert!(err.to_string().contains("owner"), "{what}: {err}");
    }
}

#[test]
fn session_state_rejects_tampering() {
    let mut svc = SesService::new(base_instance()).with_threads(T1());
    svc.handle(&transcript()[0]);
    svc.handle(&Request::Repair { k: 3, threads: None, gate: false });
    let good = svc.to_state();

    let mut wrong_version = good.clone();
    wrong_version.version = 99;
    assert_eq!(SesService::from_state(wrong_version, T1()).unwrap_err().code(), "corrupt");

    let mut bent_utility = good.clone();
    let last = bent_utility.last.as_mut().expect("repair recorded a schedule");
    last.utility += 0.125;
    assert_eq!(SesService::from_state(bent_utility, T1()).unwrap_err().code(), "corrupt");

    let mut bent_stream = good.clone();
    bent_stream.stream.as_mut().expect("repair armed the repairer").utility += 0.125;
    assert_eq!(SesService::from_state(bent_stream, T1()).unwrap_err().code(), "corrupt");

    let mut short_table = good.clone();
    short_table.stream.as_mut().unwrap().table.pop();
    assert_eq!(SesService::from_state(short_table, T1()).unwrap_err().code(), "corrupt");

    // And the untampered state still loads.
    SesService::from_state(good, T1()).unwrap();
}

/// The load check compares Ω(S) bits, not values: a warm state whose
/// stored utility is one ulp off — the lowest mantissa bit flipped, in the
/// last schedule or in the repairer — is refused as corrupt on every
/// layout, and the unflipped state loads.
#[test]
fn session_state_refuses_a_one_ulp_utility() {
    let flip = |u: &mut f64| *u = f64::from_bits(u.to_bits() ^ 1);
    for kind in StorageKind::ALL {
        let mut inst = base_instance();
        inst.event_interest = inst.event_interest.convert_to(kind);
        inst.competing_interest = inst.competing_interest.convert_to(kind);
        let mut svc = SesService::new(inst).with_threads(T1());
        svc.handle(&transcript()[0]);
        svc.handle(&Request::Repair { k: 3, threads: None, gate: false });
        let good = svc.to_state();

        let mut last = good.clone();
        flip(&mut last.last.as_mut().expect("repair recorded a schedule").utility);
        let mut stream = good.clone();
        flip(&mut stream.stream.as_mut().expect("repair armed the repairer").utility);
        for (what, state) in [("last", last), ("stream", stream)] {
            let err = SesService::from_state(state, T1()).unwrap_err();
            assert_eq!(err.code(), "corrupt", "{kind} {what}: {err}");
            assert!(
                err.to_string().contains("stored utility does not match the schedule"),
                "{kind} {what}: {err}"
            );
        }
        SesService::from_state(good, T1()).unwrap();
    }
}

#[test]
fn plain_session_rejects_persist_and_restore() {
    let mut svc = SesService::new(base_instance()).with_threads(T1());
    for req in [Request::Persist, Request::Restore] {
        match svc.handle(&req) {
            Response::Error { code, .. } => assert_eq!(code, "invalid-argument"),
            other => panic!("expected an error, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Clean-shutdown recovery and compaction
// ---------------------------------------------------------------------

/// Stop the session after each request (drop = crash: nothing is flushed
/// beyond what `handle` already fsynced), reopen, and the remainder of
/// the transcript answers byte-identically.
#[test]
fn reopen_at_every_request_boundary_answers_identically() {
    let reqs = transcript();
    let golden_dir = tmpdir("reopen-golden");
    let golden = run_golden(&golden_dir, &reqs, 0);

    for split in 0..=reqs.len() {
        let dir = tmpdir(&format!("reopen-{split}"));
        let (mut svc, _) = DurableService::open(&dir, base_instance(), T1(), 0).unwrap();
        for (i, r) in reqs[..split].iter().enumerate() {
            assert_eq!(wire::encode_response(&svc.handle(r)), golden[i]);
        }
        drop(svc);
        let (mut svc, report) = DurableService::open(&dir, base_instance(), T1(), 0).unwrap();
        assert!(!report.fresh);
        assert_eq!(report.fell_back, 0);
        assert_eq!(report.torn, None);
        for (i, r) in reqs[split..].iter().enumerate() {
            assert_eq!(
                wire::encode_response(&svc.handle(r)),
                golden[split + i],
                "split {split}: request {} diverged after reopen",
                split + i
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&golden_dir).unwrap();
}

/// Auto-compaction keeps at most two generation pairs on disk, does not
/// change a single response byte, and the compacted dir recovers
/// identically.
#[test]
fn compaction_bounds_generations_and_preserves_bytes() {
    let reqs = transcript();
    let flat_dir = tmpdir("compact-flat");
    let golden = run_golden(&flat_dir, &reqs, 0);

    let dir = tmpdir("compact");
    let compacted = run_golden(&dir, &reqs, 3);
    assert_eq!(compacted, golden, "auto-compaction changed response bytes");
    let gens = generations(&dir).unwrap();
    assert!(gens.len() <= 2, "compaction left {gens:?} on disk");
    assert!(*gens.last().unwrap() > 0, "expected at least one compaction");

    // The compacted directory recovers to the same state.
    let (mut svc, report) = DurableService::open(&dir, base_instance(), T1(), 3).unwrap();
    assert_eq!(report.fell_back, 0);
    let probe = Request::Snapshot;
    let mut flat = {
        let (svc, _) = DurableService::open(&flat_dir, base_instance(), T1(), 0).unwrap();
        svc
    };
    assert_eq!(
        wire::encode_response(&svc.handle(&probe)),
        wire::encode_response(&flat.handle(&probe)),
    );
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&flat_dir).unwrap();
}

/// `Persist` folds and retires; `Restore` reloads from disk and the
/// session keeps answering identically.
#[test]
fn persist_and_restore_requests_round_trip() {
    let reqs = transcript();
    let dir = tmpdir("persist-restore");
    let (mut svc, _) = DurableService::open(&dir, base_instance(), T1(), 0).unwrap();
    for r in &reqs[..6] {
        svc.handle(r);
    }
    let mutations_so_far = reqs[..6].iter().filter(|r| is_mutating(r)).count() as u64;
    match svc.handle(&Request::Persist) {
        Response::Persisted { generation, folded } => {
            assert_eq!(generation, 1);
            assert_eq!(folded, mutations_so_far);
        }
        other => panic!("expected Persisted, got {other:?}"),
    }
    // Mutate some more, then reload from disk: the log since the persist
    // replays and nothing observable changes.
    let before: Vec<String> =
        reqs[6..].iter().map(|r| wire::encode_response(&svc.handle(r))).collect();
    let later_mutations = reqs[6..].iter().filter(|r| is_mutating(r)).count() as u64;
    match svc.handle(&Request::Restore) {
        Response::Restored { generation, replayed } => {
            assert_eq!(generation, 1);
            assert_eq!(replayed, later_mutations);
        }
        other => panic!("expected Restored, got {other:?}"),
    }
    // A second identical transcript suffix on a fresh uninterrupted
    // session proves the restore changed nothing: replay the whole thing.
    let flat_dir = tmpdir("persist-restore-flat");
    let (mut flat, _) = DurableService::open(&flat_dir, base_instance(), T1(), 0).unwrap();
    for r in &reqs[..6] {
        flat.handle(r);
    }
    flat.handle(&Request::Persist);
    let flat_before: Vec<String> =
        reqs[6..].iter().map(|r| wire::encode_response(&flat.handle(r))).collect();
    assert_eq!(before, flat_before);
    assert_eq!(
        wire::encode_response(&svc.handle(&Request::Snapshot)),
        wire::encode_response(&flat.handle(&Request::Snapshot)),
        "restore diverged from the uninterrupted session"
    );
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&flat_dir).unwrap();
}

/// `inspect` reports what recovery would do without writing a byte.
#[test]
fn inspect_is_read_only_and_reports_torn_tails() {
    let reqs = transcript();
    let dir = tmpdir("inspect");
    run_golden(&dir, &reqs, 0);
    let mutations = reqs.iter().filter(|r| is_mutating(r)).count() as u64;

    let files_before: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            let bytes = fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect();

    let report = inspect(&dir, T1()).unwrap();
    assert_eq!(report.generations, vec![0]);
    assert_eq!(report.wal_generations, vec![0]);
    assert_eq!(report.report.generation, 0);
    assert_eq!(report.report.replayed, mutations);
    assert_eq!(report.report.torn, None);
    assert!(report.snapshot.ops_applied > 0, "transcript applied ops");

    // Tear the log tail: inspect reports it but must NOT truncate it.
    let wal = dir.join("wal-00000000.log");
    let mut bytes = fs::read(&wal).unwrap();
    let keep = bytes.len() - 5;
    bytes.truncate(keep);
    fs::write(&wal, &bytes).unwrap();
    let torn_report = inspect(&dir, T1()).unwrap();
    assert!(torn_report.report.torn.is_some());
    assert_eq!(fs::read(&wal).unwrap().len(), keep, "inspect truncated the torn tail");

    // Restore the pristine files and confirm inspect changed nothing.
    for (p, original) in &files_before {
        fs::write(p, original).unwrap();
    }
    for (p, original) in &files_before {
        assert_eq!(&fs::read(p).unwrap(), original, "inspect modified {}", p.display());
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A log with no snapshot, or a missing log between generations, is loud
/// corruption — replay cannot silently skip acknowledged records.
#[test]
fn structural_holes_are_loud() {
    let reqs = transcript();

    // Logs but no snapshot.
    let dir = tmpdir("hole-nosnap");
    run_golden(&dir, &reqs, 0);
    fs::remove_file(dir.join("snapshot-00000000.ses")).unwrap();
    let err = DurableService::open(&dir, base_instance(), T1(), 0).unwrap_err();
    assert_eq!(err.code(), "corrupt", "{err}");
    fs::remove_dir_all(&dir).unwrap();

    // Two generation pairs with the older log deleted while the newer
    // snapshot is unreadable: fallback would need the missing records.
    let dir = tmpdir("hole-gap");
    run_golden(&dir, &reqs, 3);
    let gens = generations(&dir).unwrap();
    assert_eq!(gens.len(), 2);
    let newest = *gens.last().unwrap();
    // Corrupt the newest snapshot so recovery wants to fall back...
    let snap = dir.join(format!("snapshot-{newest:08}.ses"));
    let mut bytes = fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&snap, &bytes).unwrap();
    // ...and delete the older generation's log out from under it.
    fs::remove_file(dir.join(format!("wal-{:08}.log", gens[0]))).unwrap();
    let err = DurableService::open(&dir, base_instance(), T1(), 0).unwrap_err();
    assert_eq!(err.code(), "corrupt", "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Compressed storage: point edits and the dictionary compaction rule
// ---------------------------------------------------------------------

/// A 2 000-user session on compressed interest storage (16 levels).
fn compressed_instance() -> Instance {
    let mut inst = synthetic::generate(&SyntheticParams {
        k: 0,
        num_events: 6,
        num_intervals: 3,
        num_users: 2_000,
        competing_per_interval: (1, 2),
        num_locations: 3,
        resources: 8.0,
        max_required_resources: 4.0,
        interest: InterestModel::Uniform,
        activity: ActivityModel::Uniform,
        seed: 0xC0DE,
        interest_levels: 16,
    });
    inst.event_interest = inst.event_interest.convert_to(StorageKind::Compressed);
    inst.competing_interest = inst.competing_interest.convert_to(StorageKind::Compressed);
    inst
}

/// Cold drift and a user retirement, then a shift-heavy tail: 1 200 `ShiftInterest`s (50 per
/// request) cycle four cells through fresh values. Each edit appends one
/// dictionary value and kills the cell's previous one, so the dictionary
/// reaches 1 024 entries, mostly dead, and the compaction rule fires.
fn compressed_transcript(base: &Instance) -> Vec<Request> {
    // Unquantized drift plus one structural op. (Event or user arrivals
    // would add ~2 000 live values and keep the dictionary mostly live.)
    let mut churn = ops::generate(
        base,
        &OpStreamParams::default().with_ops(6).with_churn(0.0).with_seed(0xC0C0),
    );
    churn.push(DeltaOp::RetireUsers { users: vec![3, 1_500] });
    let shifts: Vec<DeltaOp> = (0..1_200)
        .map(|i| DeltaOp::ShiftInterest {
            event: EventId::new(i % 2),
            user: 5 + 517 * (i % 4),
            interest: (i + 1) as f64 / 4096.0,
        })
        .collect();
    let mut reqs = vec![
        Request::Schedule {
            algorithm: "INC".into(),
            k: 3,
            threads: None,
            gate: false,
            profile: false,
            constraints: None,
        },
        Request::ApplyOps { ops: churn, window: None },
    ];
    reqs.extend(shifts.chunks(50).map(|c| Request::ApplyOps { ops: c.to_vec(), window: None }));
    reqs
}

fn dict_len(svc: &SesService) -> usize {
    match &svc.instance().event_interest {
        InterestMatrix::Compressed(c) => c.dict_len(),
        other => panic!("storage changed to {}", other.storage_kind()),
    }
}

/// Point edits keep dead dictionary entries until the compaction rule
/// re-encodes, and both are functions of the serialized state alone: a
/// durable compressed session restarted from snapshot + WAL (with and
/// without intermediate snapshots) writes the same `to_state` bytes and
/// answers `Snapshot` byte-identically, `heap_bytes` included; an
/// independent copy fed the same requests serializes identically too.
/// (The transcript is all mutating requests: read-only ones are not
/// logged, so they would not count in a restarted `requests_handled`.)
#[test]
fn compressed_sessions_replay_point_edits_deterministically() {
    let base = compressed_instance();
    let reqs = compressed_transcript(&base);
    let mut copy = SesService::new(base.clone()).with_threads(T1());
    let mut answers = Vec::new();
    let mut dicts = vec![dict_len(&copy)];
    for r in &reqs {
        answers.push(wire::encode_response(&copy.handle(r)));
        dicts.push(dict_len(&copy));
    }
    assert!(answers.iter().all(|a| !a.contains("\"Error\"")), "a request failed");
    let peak = *dicts.iter().max().unwrap();
    assert!(peak >= 1_000, "the tail must grow the dictionary near 1 024, peaked at {peak}");
    assert!(dicts.windows(2).any(|w| w[1] < w[0]), "the compaction rule never fired: {dicts:?}");
    let copy_state = serde_json::to_string(&copy.to_state()).unwrap();
    let snapshot = wire::encode_response(&copy.handle(&Request::Snapshot));
    assert!(snapshot.contains("\"heap_bytes\""), "{snapshot}");

    for snapshot_every in [0, 4] {
        let dir = tmpdir(&format!("compressed-{snapshot_every}"));
        let (mut svc, _) = DurableService::open(&dir, base.clone(), T1(), snapshot_every).unwrap();
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(wire::encode_response(&svc.handle(r)), answers[i], "request {i}");
        }
        let state = serde_json::to_string(&svc.service().to_state()).unwrap();
        assert_eq!(state, copy_state, "every {snapshot_every}: copies serialize differently");
        assert_eq!(wire::encode_response(&svc.handle(&Request::Snapshot)), snapshot);
        drop(svc);

        let (mut svc, report) =
            DurableService::open(&dir, base.clone(), T1(), snapshot_every).unwrap();
        assert!(!report.fresh);
        assert_eq!(report.torn, None);
        let restarted = serde_json::to_string(&svc.service().to_state()).unwrap();
        assert_eq!(restarted, copy_state, "every {snapshot_every}: restarted state diverged");
        assert_eq!(
            wire::encode_response(&svc.handle(&Request::Snapshot)),
            snapshot,
            "every {snapshot_every}: restarted Snapshot diverged"
        );
        drop(svc);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Warm repair over compressed multi-block storage: arm, then a point
/// edit, a join, a retirement and more edits, with warm reuse and a
/// re-arm at another `k` along the way.
fn warm_compressed_transcript(base: &Instance) -> Vec<Request> {
    let repair = |k| Request::Repair { k, threads: None, gate: false };
    let ops = |ops: Vec<DeltaOp>| Request::ApplyOps { ops, window: None };
    let shift = |event, user, interest| DeltaOp::ShiftInterest {
        event: EventId::new(event),
        user,
        interest,
    };
    let joiner = |j: usize| NewUser {
        event_interest: (0..base.num_events()).map(|e| ((e + j) % 4) as f64 / 4.0).collect(),
        competing_interest: vec![0.375; base.num_competing()],
        activity: vec![0.625; base.num_intervals()],
        weight: None,
    };
    vec![
        repair(3),
        ops(vec![shift(1, 700, 0.8125)]),
        ops(vec![DeltaOp::AddUsers { users: (0..3).map(joiner).collect() }]),
        ops(vec![DeltaOp::RetireUsers { users: vec![2, 600, 1_290] }]),
        ops(vec![shift(0, 1_100, 0.0), shift(2, 5, 0.3)]),
        repair(3),
        repair(4),
        ops(vec![shift(3, 1_999, 0.9)]),
    ]
}

/// A warm compressed session restarted at every request boundary — from
/// a warm snapshot written by `Persist`, and from the cold base snapshot
/// plus its log — holds the same `to_state` bytes as the uninterrupted
/// session and answers every later request, `Repair` and its `Stats`
/// included, byte-identically.
#[test]
fn warm_compressed_sessions_restart_identically_at_every_boundary() {
    let base = compressed_instance();
    let reqs = warm_compressed_transcript(&base);
    let state_of = |svc: &SesService| serde_json::to_string(&svc.to_state()).unwrap();
    let mut copy = SesService::new(base.clone()).with_threads(T1());
    let mut states = vec![state_of(&copy)];
    let mut answers = Vec::new();
    for r in &reqs {
        answers.push(wire::encode_response(&copy.handle(r)));
        states.push(state_of(&copy));
    }
    assert!(answers.iter().all(|a| !a.contains("\"Error\"")), "a request failed");

    for split in 0..=reqs.len() {
        for persist in [false, true] {
            let dir = tmpdir(&format!("warm-compressed-{split}-{persist}"));
            let (mut svc, _) = DurableService::open(&dir, base.clone(), T1(), 0).unwrap();
            for r in &reqs[..split] {
                svc.handle(r);
            }
            if persist {
                assert!(matches!(svc.handle(&Request::Persist), Response::Persisted { .. }));
            }
            drop(svc);
            let (mut svc, report) = DurableService::open(&dir, base.clone(), T1(), 0).unwrap();
            assert_eq!(report.fell_back, 0);
            assert_eq!(state_of(svc.service()), states[split], "split {split}, persist {persist}");
            for (i, r) in reqs[split..].iter().enumerate() {
                assert_eq!(
                    wire::encode_response(&svc.handle(r)),
                    answers[split + i],
                    "split {split}, persist {persist}: request {} diverged",
                    split + i
                );
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Checked interest loads
// ---------------------------------------------------------------------

/// Element `i` of a parsed array.
fn element(v: &mut Value, i: usize) -> &mut Value {
    match v {
        Value::Array(xs) => &mut xs[i],
        other => panic!("{other:?} is not an array"),
    }
}

fn uint(v: &mut Value) -> usize {
    match v {
        Value::UInt(n) => *n as usize,
        other => panic!("{other:?} is not an unsigned integer"),
    }
}

/// The layout object of a parsed session state's event interest.
fn event_interest(state: &mut Value, kind: StorageKind) -> &mut Value {
    let variant = match kind {
        StorageKind::Dense => "Dense",
        StorageKind::Sparse => "Sparse",
        StorageKind::Compressed => "Compressed",
    };
    member(member(member(state, "inst"), "event_interest"), variant)
}

/// A scheduled session over `base_instance` stored as `kind`, its state as
/// a parsed value, and its answer to `Query::Event` for event 0.
fn stored_session(kind: StorageKind) -> (SesService, Value, String) {
    let mut inst = base_instance();
    inst.event_interest = inst.event_interest.convert_to(kind);
    inst.competing_interest = inst.competing_interest.convert_to(kind);
    let mut svc = SesService::new(inst).with_threads(T1());
    svc.handle(&transcript()[0]);
    let state = serde_json::from_str(&serde_json::to_string(&svc.to_state()).unwrap()).unwrap();
    let answer = wire::encode_response(&svc.handle(&event_query()));
    (svc, state, answer)
}

fn event_query() -> Request {
    Request::Query { query: Query::Event { event: 0 } }
}

/// A snapshot whose sparse or compressed interest is malformed is
/// `corrupt`, and one whose cached column sums are wrong loads with the
/// sums re-derived: it answers `Query::Event` and writes its state exactly
/// as the untouched session does.
#[test]
fn snapshot_interest_is_checked_on_load() {
    // Each corruption tampers with the parsed layout object of the event
    // interest; every one used to load and then panic in the engine.
    type Tamper = fn(&mut Value);
    let cases: [(StorageKind, &str, Tamper); 3] = [
        (StorageKind::Sparse, "user index past |U|", |m| {
            let end = uint(element(member(m, "indptr"), 1));
            let users = uint(member(m, "num_users"));
            *element(member(m, "users"), end - 1) = Value::UInt(users as u64);
        }),
        (StorageKind::Compressed, "offset outside its block", |m| {
            let len = uint(member(element(member(m, "blocks"), 0), "len"));
            *element(member(m, "offsets"), len - 1) = Value::UInt(600);
        }),
        (StorageKind::Compressed, "entry_ptr past the end", |m| {
            let Value::Array(ptr) = member(m, "entry_ptr") else { panic!("entry_ptr") };
            let last = ptr.last_mut().unwrap();
            *last = Value::UInt(uint(last) as u64 + 4);
        }),
    ];
    for (kind, what, tamper) in cases {
        let (_, mut state, _) = stored_session(kind);
        tamper(event_interest(&mut state, kind));
        let payload = serde_json::to_string(&state).unwrap();
        let err = recover_payload("bad-interest", &payload).unwrap_err();
        assert_eq!(err.code(), "corrupt", "{kind}, {what}: {err}");
    }
    for kind in [StorageKind::Sparse, StorageKind::Compressed] {
        let (svc, mut state, answer) = stored_session(kind);
        *element(member(event_interest(&mut state, kind), "col_sums"), 0) = Value::Float(20.0);
        let mut loaded = recover_payload("stale-sums", &serde_json::to_string(&state).unwrap())
            .unwrap_or_else(|e| panic!("{kind}: stale sums must load: {e}"));
        assert_eq!(wire::encode_response(&loaded.handle(&event_query())), answer, "{kind}");
        let restored = serde_json::to_string(&loaded.service().to_state()).unwrap();
        assert_eq!(restored, serde_json::to_string(&svc.to_state()).unwrap(), "{kind}");
    }
}

// ---------------------------------------------------------------------
// The adversarial fault-injection suite
// ---------------------------------------------------------------------

/// Single-generation layout: truncate AND bit-flip the snapshot and the
/// log at every byte boundary. Truncating the log loses a suffix of
/// records (the crash model) — recovery must resume the transcript at
/// exactly the surviving-record count, byte-identically. Everything else
/// must be a typed `corrupt` failure. Zero silent divergence.
#[test]
fn fault_injection_single_generation() {
    let reqs = transcript();
    let pristine = tmpdir("fi1-pristine");
    let golden = run_golden(&pristine, &reqs, 0);
    let work = tmpdir("fi1-work");

    let snap_name = "snapshot-00000000.ses";
    let wal_name = "wal-00000000.log";
    let snap_bytes = fs::read(pristine.join(snap_name)).unwrap();
    let wal_bytes = fs::read(pristine.join(wal_name)).unwrap();

    // Snapshot faults: with a single generation there is nothing to fall
    // back to, so every truncation and every flip must fail loudly.
    for cut in 0..snap_bytes.len() {
        copy_dir(&pristine, &work);
        fs::write(work.join(snap_name), &snap_bytes[..cut]).unwrap();
        let err = DurableService::open(&work, base_instance(), T1(), 0).unwrap_err();
        assert_eq!(err.code(), "corrupt", "snapshot cut at {cut}: {err}");
    }
    for byte in 0..snap_bytes.len() {
        copy_dir(&pristine, &work);
        let mut bent = snap_bytes.clone();
        bent[byte] ^= 0x01;
        fs::write(work.join(snap_name), &bent).unwrap();
        let err = DurableService::open(&work, base_instance(), T1(), 0).unwrap_err();
        assert_eq!(err.code(), "corrupt", "snapshot flip at {byte}: {err}");
    }

    // Log flips: all declared bytes present, some lie — always loud.
    for byte in 0..wal_bytes.len() {
        copy_dir(&pristine, &work);
        let mut bent = wal_bytes.clone();
        bent[byte] ^= 0x01;
        fs::write(work.join(wal_name), &bent).unwrap();
        let err = DurableService::open(&work, base_instance(), T1(), 0).unwrap_err();
        assert_eq!(err.code(), "corrupt", "wal flip at {byte}: {err}");
    }

    // Log truncations: the crash model. Recovery succeeds with exactly
    // the surviving complete records and answers the rest of the golden
    // transcript byte for byte.
    for cut in 0..wal_bytes.len() {
        copy_dir(&pristine, &work);
        fs::write(work.join(wal_name), &wal_bytes[..cut]).unwrap();
        let survived = read_wal(&work.join(wal_name)).unwrap().records.len();
        let (mut svc, report) = DurableService::open(&work, base_instance(), T1(), 0)
            .unwrap_or_else(|e| panic!("wal cut at {cut} must recover: {e}"));
        assert_eq!(report.replayed, survived as u64, "cut at {cut}");
        let resume = resume_index(&reqs, survived);
        for (i, r) in reqs[resume..].iter().enumerate() {
            assert_eq!(
                wire::encode_response(&svc.handle(r)),
                golden[resume + i],
                "wal cut at {cut} ({survived} records): request {} diverged",
                resume + i
            );
        }
    }

    fs::remove_dir_all(&pristine).unwrap();
    fs::remove_dir_all(&work).unwrap();
}

/// Two-generation layout (auto-compaction on): a corrupted newest
/// snapshot falls back **losslessly** to the previous generation plus
/// both logs; faults in the newest log behave exactly as in the
/// single-generation suite; both snapshots corrupt is loud.
#[test]
fn fault_injection_with_fallback_generation() {
    let reqs = transcript();
    let pristine = tmpdir("fi2-pristine");
    let golden = run_golden(&pristine, &reqs, 3);
    let work = tmpdir("fi2-work");

    let gens = generations(&pristine).unwrap();
    assert_eq!(gens.len(), 2, "expected two generation pairs, got {gens:?}");
    let (old_gen, new_gen) = (gens[0], gens[1]);
    let new_snap = format!("snapshot-{new_gen:08}.ses");
    let old_snap = format!("snapshot-{old_gen:08}.ses");
    let new_wal = format!("wal-{new_gen:08}.log");
    let new_snap_bytes = fs::read(pristine.join(&new_snap)).unwrap();
    let old_snap_bytes = fs::read(pristine.join(&old_snap)).unwrap();
    let new_wal_bytes = fs::read(pristine.join(&new_wal)).unwrap();
    let total_mutations = reqs.iter().filter(|r| is_mutating(r)).count();
    let wal_records = read_wal(&pristine.join(&new_wal)).unwrap().records.len();
    // The newest snapshot folds everything before its log started.
    let folded = total_mutations - wal_records;

    // Any fault in the newest snapshot — truncation or flip — falls back
    // to the previous generation and replays BOTH logs: full recovery,
    // nothing lost. The fallback compacts immediately, making the
    // repaired state the new durable baseline.
    for (what, bent) in [
        ("cut", new_snap_bytes[..new_snap_bytes.len() / 2].to_vec()),
        ("flip", {
            let mut b = new_snap_bytes.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x01;
            b
        }),
    ] {
        copy_dir(&pristine, &work);
        fs::write(work.join(&new_snap), &bent).unwrap();
        let (mut svc, report) = DurableService::open(&work, base_instance(), T1(), 3)
            .unwrap_or_else(|e| panic!("newest snapshot {what} must fall back: {e}"));
        assert_eq!(report.fell_back, 1, "{what}");
        assert_eq!(report.generation, old_gen, "{what}");
        // Full state recovered: a probe answers exactly like the
        // uninterrupted session.
        let flat_dir = tmpdir("fi2-flat");
        let flat_golden = run_golden(&flat_dir, &reqs, 0);
        assert_eq!(flat_golden, golden);
        let (mut flat, _) = DurableService::open(&flat_dir, base_instance(), T1(), 0).unwrap();
        assert_eq!(
            wire::encode_response(&svc.handle(&Request::Snapshot)),
            wire::encode_response(&flat.handle(&Request::Snapshot)),
            "fallback after newest-snapshot {what} lost state"
        );
        fs::remove_dir_all(&flat_dir).unwrap();
    }

    // Newest log: flips are loud, truncations resume at the surviving
    // record count on top of what the newest snapshot already folded.
    for byte in 0..new_wal_bytes.len() {
        copy_dir(&pristine, &work);
        let mut bent = new_wal_bytes.clone();
        bent[byte] ^= 0x01;
        fs::write(work.join(&new_wal), &bent).unwrap();
        let err = DurableService::open(&work, base_instance(), T1(), 3).unwrap_err();
        assert_eq!(err.code(), "corrupt", "newest wal flip at {byte}: {err}");
    }
    for cut in 0..new_wal_bytes.len() {
        copy_dir(&pristine, &work);
        fs::write(work.join(&new_wal), &new_wal_bytes[..cut]).unwrap();
        let survived = read_wal(&work.join(&new_wal)).unwrap().records.len();
        let (mut svc, report) = DurableService::open(&work, base_instance(), T1(), 3)
            .unwrap_or_else(|e| panic!("newest wal cut at {cut} must recover: {e}"));
        assert_eq!(report.fell_back, 0, "cut at {cut}");
        let resume = resume_index(&reqs, folded + survived);
        for (i, r) in reqs[resume..].iter().enumerate() {
            assert_eq!(
                wire::encode_response(&svc.handle(r)),
                golden[resume + i],
                "newest wal cut at {cut}: request {} diverged",
                resume + i
            );
        }
    }

    // Both snapshots corrupt: nothing valid to recover from — loud.
    copy_dir(&pristine, &work);
    for (name, bytes) in [(&new_snap, &new_snap_bytes), (&old_snap, &old_snap_bytes)] {
        let mut bent = bytes.to_vec();
        let mid = bent.len() / 2;
        bent[mid] ^= 0x01;
        fs::write(work.join(name), &bent).unwrap();
    }
    let err = DurableService::open(&work, base_instance(), T1(), 3).unwrap_err();
    assert_eq!(err.code(), "corrupt", "{err}");

    fs::remove_dir_all(&pristine).unwrap();
    fs::remove_dir_all(&work).unwrap();
}

/// A syntactically valid snapshot container wrapping a semantically bad
/// payload (garbage JSON, wrong layout version) is caught by the state
/// validators, not the checksums — still loud, still typed.
#[test]
fn valid_container_with_bad_payload_is_loud() {
    let reqs = transcript();
    for payload in [
        b"not json at all".to_vec(),
        br#"{"version":99,"inst":null,"ops_applied":0,"requests_handled":0}"#.to_vec(),
        br#"{"version":1,"ops_applied":0,"requests_handled":0}"#.to_vec(),
    ] {
        let dir = tmpdir("badpayload");
        run_golden(&dir, &reqs[..3], 0);
        ses_core::durable::write_snapshot(&dir, 0, &payload).unwrap();
        // The log now disagrees with the rewritten snapshot too, but the
        // payload check fires first either way.
        let err = DurableService::open(&dir, base_instance(), T1(), 0).unwrap_err();
        assert_eq!(err.code(), "corrupt", "payload {:?}: {err}", String::from_utf8_lossy(&payload));
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Sanity: the generation scan helpers see what the suite expects them
/// to (guards the file-name coupling the faults above rely on).
#[test]
fn on_disk_layout_matches_the_scan() {
    let dir = tmpdir("layout");
    run_golden(&dir, &transcript(), 0);
    assert_eq!(generations(&dir).unwrap(), vec![0]);
    assert_eq!(wal_generations(&dir).unwrap(), vec![0]);
    assert!(dir.join("snapshot-00000000.ses").exists());
    assert!(dir.join("wal-00000000.log").exists());
    fs::remove_dir_all(&dir).unwrap();
}

//! End-to-end tests of the durability surface: kill-and-recover over
//! `serve --state-dir` (SIGKILL between answered requests, restart,
//! byte-compare the stitched transcript), the `--max-line-bytes` input
//! guard, `ses recover` inspection, and the exit-code contract for
//! corrupt/truncated dataset and snapshot files across `run`/`stream`/
//! `serve`/`recover`.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use serde_json::Value;
use ses_algorithms::service::{wire, Query};
use ses_algorithms::Request;
use ses_core::delta::DeltaOp;
use ses_core::EventId;

fn ses() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ses"))
}

/// A fresh scratch directory under the target-adjacent temp root.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ses-durable-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The shared instance shape for every durable session in this file.
const SHAPE: &[&str] =
    &["--dataset", "unf", "--users", "30", "--events", "10", "--intervals", "5", "--seed", "99"];

/// Spawns `ses serve` with the shared shape plus `extra` flags.
fn spawn_serve(extra: &[&str]) -> Child {
    ses()
        .arg("serve")
        .args(SHAPE)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ses serve")
}

/// The request transcript the kill-and-recover tests replay: a mix of
/// mutating requests (logged to the write-ahead log) and queries, with a
/// failed-validation batch in the middle — its rejection must replay
/// deterministically too.
fn transcript() -> Vec<String> {
    let shift = |event: usize, user: usize, interest: f64| DeltaOp::ShiftInterest {
        event: EventId::new(event),
        user,
        interest,
    };
    let reqs = vec![
        Request::Schedule {
            algorithm: "INC".into(),
            k: 3,
            threads: None,
            gate: false,
            profile: false,
            constraints: None,
        },
        Request::Query { query: ses_algorithms::service::Query::Event { event: 0 } },
        Request::ApplyOps { ops: vec![shift(1, 0, 0.25), shift(2, 3, 0.75)], window: None },
        Request::Snapshot,
        Request::Repair { k: 3, threads: None, gate: false },
        // Rejected batch: dangling event. Still logged; replay must
        // reproduce the same Error response.
        Request::ApplyOps {
            ops: vec![DeltaOp::RemoveEvent { event: EventId::new(9999) }],
            window: None,
        },
        Request::ApplyOps { ops: vec![shift(0, 5, 0.5)], window: None },
        Request::Repair { k: 3, threads: None, gate: false },
        Request::Snapshot,
    ];
    reqs.iter().map(wire::encode_request).collect()
}

/// Runs the whole transcript against one uninterrupted durable session
/// and returns the response lines.
fn golden_run(state_dir: &Path, extra: &[&str]) -> Vec<String> {
    let mut child = spawn_serve(&[&["--state-dir", state_dir.to_str().unwrap()], extra].concat());
    let mut stdin = child.stdin.take().unwrap();
    for line in transcript() {
        writeln!(stdin, "{line}").unwrap();
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "golden serve exited {:?}", out.status);
    String::from_utf8(out.stdout).unwrap().lines().map(str::to_string).collect()
}

/// Drives `count` requests one at a time (awaiting each response before
/// sending the next), then SIGKILLs the server mid-session. Returns the
/// responses received before the kill.
fn run_until_kill(state_dir: &Path, lines: &[String], count: usize) -> Vec<String> {
    let mut child = spawn_serve(&["--state-dir", state_dir.to_str().unwrap()]);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut got = Vec::new();
    for line in &lines[..count] {
        writeln!(stdin, "{line}").unwrap();
        let mut resp = String::new();
        stdout.read_line(&mut resp).unwrap();
        got.push(resp.trim_end().to_string());
    }
    // SIGKILL: no destructors, no graceful shutdown — the recovery path
    // gets exactly what fsync left on disk.
    child.kill().unwrap();
    child.wait().unwrap();
    got
}

/// The tentpole proof at the binary level: kill the server after every
/// possible answered-request boundary, restart on the same state
/// directory, and the stitched transcript must be byte-identical to an
/// uninterrupted session's.
#[test]
fn kill_and_recover_is_byte_identical_at_every_boundary() {
    let lines = transcript();
    let golden = golden_run(&tmpdir("golden"), &[]);
    assert_eq!(golden.len(), lines.len(), "golden answers every request");

    for cut in 1..lines.len() {
        let dir = tmpdir(&format!("kill-{cut}"));
        let mut got = run_until_kill(&dir, &lines, cut);

        // Restart on the same directory; the surviving requests replay
        // from snapshot + log, and the remainder of the script runs live.
        let mut child = spawn_serve(&["--state-dir", dir.to_str().unwrap()]);
        let mut stdin = child.stdin.take().unwrap();
        for line in &lines[cut..] {
            writeln!(stdin, "{line}").unwrap();
        }
        drop(stdin);
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "recovered serve exited {:?}", out.status);
        got.extend(String::from_utf8(out.stdout).unwrap().lines().map(str::to_string));

        assert_eq!(got, golden, "kill after request {cut}: stitched transcript diverged");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Aggressive compaction (`--snapshot-ops 2`) must not change a single
/// response byte — folding the log into snapshots is invisible on the
/// wire.
#[test]
fn compaction_cadence_does_not_change_response_bytes() {
    let golden = golden_run(&tmpdir("cadence-flat"), &[]);
    let compacted = golden_run(&tmpdir("cadence-2"), &["--snapshot-ops", "2"]);
    assert_eq!(golden, compacted);
}

/// Satellite guard: a request line longer than `--max-line-bytes` is
/// answered with a protocol-coded `Error` (not buffered, not fatal), and
/// the session keeps serving.
#[test]
fn oversized_line_answers_protocol_error_and_session_survives() {
    let mut child = spawn_serve(&["--max-line-bytes", "128"]);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());

    // An over-cap line: valid JSON so only the length guard can reject it.
    let huge = format!("{{\"v\":1,\"req\":{{\"Nope\":\"{}\"}}}}", "x".repeat(4096));
    assert!(huge.len() > 128);
    writeln!(stdin, "{huge}").unwrap();
    let mut resp = String::new();
    stdout.read_line(&mut resp).unwrap();
    assert!(resp.starts_with("{\"v\":1,\"resp\":{\"Error\":{\"code\":\"protocol\""), "{resp}");
    assert!(resp.contains("max-line-bytes"), "{resp}");

    // The session is still alive and answers normally.
    writeln!(stdin, "{}", wire::encode_request(&Request::Snapshot)).unwrap();
    resp.clear();
    stdout.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"State\""), "{resp}");

    drop(stdin);
    assert!(child.wait().unwrap().success());
}

/// Nesting deeper than the wire cap is rejected in-protocol too (flat
/// pre-scan, no recursive parse).
#[test]
fn deep_nesting_answers_protocol_error() {
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    writeln!(stdin, "{{\"v\":1,\"req\":{}{}", "[".repeat(500), "]".repeat(500)).unwrap();
    let mut resp = String::new();
    stdout.read_line(&mut resp).unwrap();
    assert!(
        resp.starts_with("{\"v\":1,\"resp\":{\"Error\":{\"code\":\"protocol\"")
            && resp.contains("nesting"),
        "{resp}"
    );
    drop(stdin);
    assert!(child.wait().unwrap().success());
}

/// Captured run of the binary: (exit code, stderr).
fn run_capture(args: &[&str]) -> (i32, String) {
    let out = ses().args(args).stdin(Stdio::null()).stdout(Stdio::null()).output().unwrap();
    (out.status.code().expect("no signal"), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// `ses recover` prints a read-only report of what recovery would do.
#[test]
fn recover_reports_without_mutating() {
    let dir = tmpdir("inspect");
    let _ = golden_run(&dir, &["--snapshot-ops", "3"]);
    let before: Vec<PathBuf> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();

    let out = ses()
        .args(["recover", "--state-dir", dir.to_str().unwrap()])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("recovers from:"), "{report}");
    assert!(report.contains("session state:"), "{report}");
    assert!(report.contains("schedule:"), "{report}");

    // Read-only: the directory is untouched.
    let after: Vec<PathBuf> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    let (mut b, mut a) = (before, after);
    b.sort();
    a.sort();
    assert_eq!(b, a);
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupt on-disk state is a loud typed failure, never a silent fresh
/// start: exit 1 with the stable `corrupt` code on stderr, for both
/// `serve --state-dir` and `recover`.
#[test]
fn corrupt_snapshot_exits_1_with_corrupt_code() {
    let dir = tmpdir("corrupt-snap");
    let _ = golden_run(&dir, &[]);

    // Bit-flip the middle of the only snapshot: the checksum must catch it.
    let snap = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "ses"))
        .expect("snapshot file exists");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, &bytes).unwrap();

    let (code, stderr) = run_capture(&["recover", "--state-dir", dir.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("error[corrupt]"), "{stderr}");

    let mut serve_args = vec!["serve"];
    serve_args.extend_from_slice(SHAPE);
    serve_args.extend_from_slice(&["--state-dir", dir.to_str().unwrap()]);
    let (code, stderr) = run_capture(&serve_args);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("error[corrupt]"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A truncated dataset/instance file hits the same contract on every
/// subcommand that takes `--input`: exit 1, `error[corrupt]` on stderr.
/// A missing file is I/O, not corruption. Usage mistakes stay exit 2.
#[test]
fn corrupt_input_file_exit_codes() {
    let dir = tmpdir("inputs");

    // A valid instance, then a truncated copy of it.
    let good = dir.join("good.json");
    let mut gen_args = vec!["generate"];
    gen_args.extend_from_slice(SHAPE);
    gen_args.extend_from_slice(&["--out", good.to_str().unwrap()]);
    let (code, stderr) = run_capture(&gen_args);
    assert_eq!(code, 0, "{stderr}");
    let full = std::fs::read(&good).unwrap();
    let truncated = dir.join("truncated.json");
    std::fs::write(&truncated, &full[..full.len() / 2]).unwrap();
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, b"{\"events\": \"not an instance\"}").unwrap();

    for sub in ["run", "stream", "serve"] {
        for bad in [&truncated, &garbage] {
            let (code, stderr) = run_capture(&[sub, "--input", bad.to_str().unwrap()]);
            assert_eq!(code, 1, "{sub} on {bad:?}: {stderr}");
            assert!(stderr.contains("error[corrupt]"), "{sub} on {bad:?}: {stderr}");
        }
        // Missing file: I/O failure, distinct code, same exit 1.
        let (code, stderr) = run_capture(&[sub, "--input", "/nonexistent/inst.json"]);
        assert_eq!(code, 1, "{sub}: {stderr}");
        assert!(stderr.contains("error[io]"), "{sub}: {stderr}");
    }

    // The valid file round-trips: generate → run --input exits 0.
    let (code, stderr) =
        run_capture(&["run", "--input", good.to_str().unwrap(), "--k", "3", "--threads", "1"]);
    assert_eq!(code, 0, "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The object member `key` of a parsed instance file.
fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Object(fields) => {
            &mut fields.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
        }
        other => panic!("{other:?} is not an object"),
    }
}

/// Element `i` of a parsed array.
fn element(v: &mut Value, i: usize) -> &mut Value {
    match v {
        Value::Array(xs) => &mut xs[i],
        other => panic!("{other:?} is not an array"),
    }
}

fn uint(v: &mut Value) -> u64 {
    match v {
        Value::UInt(n) => *n,
        other => panic!("{other:?} is not an unsigned integer"),
    }
}

/// Generates the shared shape with `storage` interest into `dir`, parsed.
fn generated_instance(dir: &Path, storage: &str) -> Value {
    let path = dir.join(format!("{storage}.json"));
    let mut args = vec!["generate"];
    args.extend_from_slice(SHAPE);
    args.extend_from_slice(&["--storage", storage, "--out", path.to_str().unwrap()]);
    let (code, stderr) = run_capture(&args);
    assert_eq!(code, 0, "{stderr}");
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// The layout object of a parsed instance's event interest.
fn event_interest<'a>(inst: &'a mut Value, variant: &str) -> &'a mut Value {
    member(member(inst, "event_interest"), variant)
}

/// `serve --input` answers to a `Query` for event 0.
fn query_event_0(input: &Path) -> String {
    let mut child = ses()
        .args(["serve", "--input", input.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let query = Request::Query { query: Query::Event { event: 0 } };
    writeln!(child.stdin.take().unwrap(), "{}", wire::encode_request(&query)).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    String::from_utf8(out.stdout).unwrap()
}

/// Malformed sparse or compressed interest in an `--input` file is
/// corruption (exit 1, `error[corrupt]`) on `run` and `serve`, never a
/// panic; stale cached column sums are re-derived, so `serve` answers a
/// `Query` exactly as it does for the untouched file.
#[test]
fn malformed_interest_input_is_corrupt() {
    let dir = tmpdir("interest");
    type Tamper = fn(&mut Value);
    let cases: [(&str, &str, &str, Tamper); 3] = [
        ("sparse", "Sparse", "user index past |U|", |m| {
            let end = uint(element(member(m, "indptr"), 1)) as usize;
            let users = uint(member(m, "num_users"));
            *element(member(m, "users"), end - 1) = Value::UInt(users);
        }),
        ("compressed", "Compressed", "offset outside its block", |m| {
            let len = uint(member(element(member(m, "blocks"), 0), "len")) as usize;
            *element(member(m, "offsets"), len - 1) = Value::UInt(600);
        }),
        ("compressed", "Compressed", "entry_ptr past the end", |m| {
            let Value::Array(ptr) = member(m, "entry_ptr") else { panic!("entry_ptr") };
            let last = ptr.last_mut().unwrap();
            *last = Value::UInt(uint(last) + 4);
        }),
    ];
    for (storage, variant, what, tamper) in cases {
        let mut inst = generated_instance(&dir, storage);
        tamper(event_interest(&mut inst, variant));
        let bad = dir.join("bad.json");
        std::fs::write(&bad, serde_json::to_string(&inst).unwrap()).unwrap();
        for sub in ["run", "serve"] {
            let (code, stderr) = run_capture(&[sub, "--input", bad.to_str().unwrap()]);
            assert_eq!(code, 1, "{sub}, {what}: {stderr}");
            assert!(stderr.contains("error[corrupt]"), "{sub}, {what}: {stderr}");
        }
    }
    for (storage, variant) in [("sparse", "Sparse"), ("compressed", "Compressed")] {
        let mut inst = generated_instance(&dir, storage);
        let clean = query_event_0(&dir.join(format!("{storage}.json")));
        *element(member(event_interest(&mut inst, variant), "col_sums"), 0) = Value::Float(20.0);
        let stale = dir.join("stale.json");
        std::fs::write(&stale, serde_json::to_string(&inst).unwrap()).unwrap();
        assert_eq!(query_event_0(&stale), clean, "{storage}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Usage mistakes around the new flags are exit 2 (the caller's error),
/// caught before any state is touched.
#[test]
fn durable_usage_errors_exit_2() {
    // recover without --state-dir.
    let (code, stderr) = run_capture(&["recover"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("error[invalid-argument]"), "{stderr}");
    // --snapshot-ops without --state-dir.
    let mut args = vec!["serve"];
    args.extend_from_slice(SHAPE);
    args.extend_from_slice(&["--snapshot-ops", "8"]);
    let (code, _) = run_capture(&args);
    assert_eq!(code, 2);
    // --max-line-bytes 0 can never answer anything.
    let mut args = vec!["serve"];
    args.extend_from_slice(SHAPE);
    args.extend_from_slice(&["--max-line-bytes", "0"]);
    let (code, _) = run_capture(&args);
    assert_eq!(code, 2);
    // An empty state directory that has a write-ahead log but no snapshot
    // is structural corruption, not a fresh start.
    let dir = tmpdir("wal-no-snap");
    std::fs::write(dir.join("wal-00000000.log"), b"SESWAL1.").unwrap();
    let (code, stderr) = run_capture(&["recover", "--state-dir", dir.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("error[corrupt]"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `Persist` and `Restore` work over the wire against a durable session
/// (and keep failing cleanly on a plain one).
#[test]
fn persist_and_restore_over_the_wire() {
    let dir = tmpdir("persist");
    let mut child = spawn_serve(&["--state-dir", dir.to_str().unwrap()]);
    let mut stdin = child.stdin.take().unwrap();
    for line in [
        r#"{"v":1,"req":{"Schedule":{"algorithm":"INC","k":2}}}"#,
        r#"{"v":1,"req":"Persist"}"#,
        r#"{"v":1,"req":"Restore"}"#,
        r#"{"v":1,"req":"Snapshot"}"#,
    ] {
        writeln!(stdin, "{line}").unwrap();
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let got = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = got.lines().collect();
    assert_eq!(lines.len(), 4, "{got}");
    assert!(lines[1].contains("\"Persisted\""), "{}", lines[1]);
    assert!(lines[2].contains("\"Restored\""), "{}", lines[2]);
    assert!(lines[3].contains("\"State\""), "{}", lines[3]);

    // Plain session: typed rejection, session keeps serving.
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"{\"v\":1,\"req\":\"Persist\"}\n").unwrap();
    stdin.write_all(b"{\"v\":1,\"req\":\"Snapshot\"}\n").unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let got = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = got.lines().collect();
    assert_eq!(lines.len(), 2, "{got}");
    assert!(
        lines[0].contains("\"code\":\"invalid-argument\"") && lines[0].contains("--state-dir"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"State\""), "{}", lines[1]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The recovery banner goes to stderr, never stdout — stdout stays a pure
/// response stream even across a recovery.
#[test]
fn recovery_banner_stays_on_stderr() {
    let dir = tmpdir("banner");
    let _ = golden_run(&dir, &[]);

    let mut child = ses()
        .arg("serve")
        .args(SHAPE)
        .args(["--state-dir", dir.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "{}", wire::encode_request(&Request::Snapshot)).unwrap();
    drop(stdin);
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.contains("\"State\""), "{stdout}");
    assert!(stderr.contains("recovered generation"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

//! End-to-end tests of the `ses` binary surface added by the service PR:
//! the `serve` golden transcript (byte-compared) and the exit-code
//! contract (0 success / 1 runtime failure / 2 usage error).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn ses() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ses"))
}

/// The instance shape every golden transcript in this file is pinned on.
const SHAPE: &[&str] =
    &["--dataset", "unf", "--users", "40", "--events", "12", "--intervals", "6", "--seed", "1509"];

/// Pipes a request script through `ses serve` (the shared shape flags plus
/// any `extra` args) and byte-compares the response log against a committed
/// golden transcript. Responses carry no wall-clock fields and are
/// bit-identical across thread counts, so the comparison holds under any
/// `SES_THREADS` (CI runs it at 1 and 4).
fn assert_serve_golden(extra: &[&str], script_path: &str, golden_path: &str) {
    let root = repo_root();
    let script = std::fs::read_to_string(root.join(script_path)).unwrap();
    let golden = std::fs::read_to_string(root.join(golden_path)).unwrap();

    let mut child = ses()
        .arg("serve")
        .args(SHAPE)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ses serve");
    child.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited {:?}", out.status);

    let got = String::from_utf8(out.stdout).expect("responses are UTF-8");
    assert_eq!(
        got, golden,
        "serve responses diverged from {golden_path} — if the protocol changed \
         intentionally, regenerate the golden with the command at the top of the script"
    );
}

#[test]
fn serve_round_trips_the_golden_transcript() {
    assert_serve_golden(&[], "scripts/serve-smoke.jsonl", "tests/golden/serve_smoke.jsonl");
}

/// The constrained session golden: `--constraints mixed` installs a seeded
/// preset, and the script exercises constrained scheduling, an inline
/// constraints block, warm churn through the repairer, four distinct
/// constraint-violation `Error` responses, and empty-set relaxation.
#[test]
fn serve_round_trips_the_constrained_golden_transcript() {
    assert_serve_golden(
        &["--constraints", "mixed"],
        "scripts/serve-constrained-smoke.jsonl",
        "tests/golden/serve_constrained.jsonl",
    );
}

/// The hostile golden: edge-of-range `k`, over-cap `threads`, out-of-range
/// interest, a zero window, empty and unsorted user batches, a short
/// interest column, `u64::MAX` query ids and retiring every user. Each
/// line comes back as one response and the session keeps serving.
#[test]
fn serve_round_trips_the_hostile_golden_transcript() {
    assert_serve_golden(
        &[],
        "scripts/serve-hostile-smoke.jsonl",
        "tests/golden/serve_hostile.jsonl",
    );
}

/// Runs `lines` through one `ses serve` session on the shared shape plus
/// `extra`, returning (exit success, stdout lines, stderr).
fn serve_lines(extra: &[&str], lines: &[&str]) -> (bool, Vec<String>, String) {
    let mut child = ses()
        .arg("serve")
        .args(SHAPE)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ses serve");
    let mut stdin = child.stdin.take().unwrap();
    for line in lines {
        writeln!(stdin, "{line}").unwrap();
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap().lines().map(str::to_string).collect();
    (out.status.success(), stdout, String::from_utf8(out.stderr).unwrap())
}

const OVER_CAP_SCHEDULE: &str =
    r#"{"v":1,"req":{"Schedule":{"algorithm":"INC","k":3,"threads":100000}}}"#;
const OVER_CAP_REPAIR: &str = r#"{"v":1,"req":{"Repair":{"k":3,"threads":65}}}"#;
const SCHEDULE_INC: &str = r#"{"v":1,"req":{"Schedule":{"algorithm":"INC","k":3}}}"#;
const SNAPSHOT: &str = r#"{"v":1,"req":"Snapshot"}"#;

/// A `threads` count above the per-request cap used to spawn that many
/// workers and abort the process. It is an `invalid-argument` error now,
/// and the session answers the next request as if it never came.
#[test]
fn over_cap_threads_is_rejected_and_the_session_keeps_serving() {
    let (ok, got, _) =
        serve_lines(&[], &[OVER_CAP_SCHEDULE, OVER_CAP_REPAIR, SNAPSHOT, SCHEDULE_INC]);
    let (_, clean, _) = serve_lines(&[], &[SNAPSHOT, SCHEDULE_INC]);
    assert!(ok, "serve must survive an over-cap thread count");
    assert_eq!(got.len(), 4, "{got:?}");
    for line in &got[..2] {
        assert!(line.contains(r#""code":"invalid-argument""#), "{line}");
        assert!(line.contains("per-request limit of 64"), "{line}");
    }
    assert_eq!(got[2..], clean[..], "a rejected request must leave no trace");
}

/// A durable session logs mutating requests before it validates them, so
/// an over-cap request lands in the write-ahead log. Replaying it on
/// restart must answer the same error again — not abort recovery — and
/// leave the recovered state equal to the live one.
#[test]
fn over_cap_threads_record_replays_from_the_log() {
    let dir = std::env::temp_dir().join(format!("ses-serve-cli-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state_dir = ["--state-dir", dir.to_str().unwrap()];

    let (ok, live, _) = serve_lines(&state_dir, &[OVER_CAP_SCHEDULE, SCHEDULE_INC, SNAPSHOT]);
    assert!(ok);
    assert!(live[0].contains(r#""code":"invalid-argument""#), "{}", live[0]);

    let (ok, recovered, stderr) = serve_lines(&state_dir, &[SNAPSHOT]);
    assert!(ok, "recovery must survive the logged over-cap record");
    assert!(stderr.contains("(2 log records replayed"), "{stderr}");
    assert_eq!(recovered, live[2..], "replay must rebuild the live state");
    std::fs::remove_dir_all(&dir).ok();
}

/// A second session over the same script must produce the same bytes —
/// the transcript is deterministic, not merely pinned.
#[test]
fn serve_is_deterministic_across_sessions() {
    let root = repo_root();
    let script = std::fs::read_to_string(root.join("scripts/serve-smoke.jsonl")).unwrap();
    let run = || {
        let mut child = ses()
            .arg("serve")
            .args(SHAPE)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        child.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        out.stdout
    };
    assert_eq!(run(), run());
}

/// A broken stdin read mid-session (one invalid-UTF-8 byte) must not
/// abort with a bare exit 1: every line before the bad byte is answered,
/// the failure itself comes back as a final `io`-coded `Error` response,
/// and the session ends as cleanly as EOF.
#[test]
fn invalid_utf8_on_stdin_ends_the_session_cleanly() {
    let mut child = ses()
        .args([
            "serve",
            "--dataset",
            "unf",
            "--users",
            "20",
            "--events",
            "6",
            "--intervals",
            "3",
            "--seed",
            "7",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ses serve");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"{\"v\":1,\"req\":\"Snapshot\"}\n").unwrap();
    stdin.write_all(b"\xFF\n").unwrap();
    // Anything after the bad byte is past the end of the session.
    stdin.write_all(b"{\"v\":1,\"req\":\"Snapshot\"}\n").unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited {:?} instead of winding down", out.status);

    let got = String::from_utf8(out.stdout).expect("responses are UTF-8");
    let lines: Vec<&str> = got.lines().collect();
    assert_eq!(lines.len(), 2, "one answer for the good line, one for the bad read:\n{got}");
    assert!(lines[0].contains("\"State\""), "{}", lines[0]);
    // Don't pin the OS error text — just the protocol shape and the code.
    assert!(lines[1].starts_with("{\"v\":1,\"resp\":{\"Error\":{\"code\":\"io\""), "{}", lines[1]);
}

fn exit_code(args: &[&str]) -> i32 {
    ses()
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap()
        .code()
        .expect("no signal")
}

/// Usage errors — the caller's mistake — exit 2, distinguishable from the
/// exit-1 runtime failures.
#[test]
fn usage_errors_exit_2() {
    // Typoed flag (caught by the per-subcommand whitelist).
    assert_eq!(exit_code(&["run", "--usrs", "5"]), 2);
    // Unknown subcommand.
    assert_eq!(exit_code(&["frobnicate"]), 2);
    // Unparseable flag value.
    assert_eq!(exit_code(&["run", "--k", "banana"]), 2);
    // Unknown dataset / algorithm resolve before any work runs.
    assert_eq!(exit_code(&["run", "--dataset", "nope"]), 2);
    assert_eq!(
        exit_code(&[
            "run",
            "--dataset",
            "unf",
            "--users",
            "10",
            "--events",
            "4",
            "--intervals",
            "2",
            "--algorithms",
            "XYZ",
        ]),
        2
    );
    // Missing required argument.
    assert_eq!(exit_code(&["generate", "--dataset", "unf"]), 2);
}

/// An unknown `--constraints` family is a usage error on every subcommand
/// carrying the flag, caught before any scheduling work runs.
#[test]
fn unknown_constraint_family_exits_2() {
    let shape = ["--dataset", "unf", "--users", "10", "--events", "4", "--intervals", "2"];
    for sub in ["run", "stream", "serve"] {
        let mut args = vec![sub];
        args.extend_from_slice(&shape);
        args.extend_from_slice(&["--constraints", "nope"]);
        assert_eq!(exit_code(&args), 2, "{sub} accepted a bogus family");
    }
}

/// Runtime failures keep exiting 1.
#[test]
fn runtime_failures_exit_1() {
    assert_eq!(
        exit_code(&[
            "generate",
            "--dataset",
            "unf",
            "--users",
            "5",
            "--events",
            "3",
            "--intervals",
            "2",
            "--out",
            "/nonexistent-dir/x.json",
        ]),
        1
    );
}

/// The happy paths still exit 0 (run is also a service client now).
#[test]
fn success_exits_0() {
    assert_eq!(
        exit_code(&[
            "run",
            "--dataset",
            "unf",
            "--users",
            "20",
            "--events",
            "6",
            "--intervals",
            "3",
            "--k",
            "3",
            "--threads",
            "1",
        ]),
        0
    );
    assert_eq!(exit_code(&["help"]), 0);
}

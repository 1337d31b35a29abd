//! End-to-end tests of `ses serve --listen`: the TCP transport, session
//! multiplexing, graceful SIGTERM shutdown (drain + WAL fsync + exit 0),
//! the per-connection guards, and SIGKILL + recovery of durable sessions
//! — all at the binary level, over real sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn ses() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ses"))
}

/// The shape every golden transcript was recorded against.
const SHAPE: [&str; 10] =
    ["serve", "--dataset", "unf", "--users", "40", "--events", "12", "--intervals", "6", "--seed"];

/// A running `--listen` server plus the machinery to talk to it and shut
/// it down. Stderr is drained on a thread (so the child never blocks on a
/// full pipe) and handed back at shutdown for assertions.
struct Server {
    child: Child,
    addr: String,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl Server {
    /// Boots `ses serve --listen 127.0.0.1:0 <extra>` and parses the
    /// bound address off the stderr banner.
    fn start(extra: &[&str]) -> Server {
        let mut child = ses()
            .args(SHAPE)
            .args(["1509", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ses serve --listen");
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let mut addr = None;
        let mut line = String::new();
        let mut banner = String::new();
        while stderr.read_line(&mut line).unwrap() > 0 {
            banner.push_str(&line);
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = Some(rest.split_whitespace().next().unwrap().to_string());
                break;
            }
            line.clear();
        }
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            banner + &rest
        });
        Server { child, addr: addr.expect("server printed its bound address"), stderr: Some(drain) }
    }

    fn connect(&self) -> TcpStream {
        TcpStream::connect(&self.addr).expect("connect")
    }

    /// SIGTERM, then wait: returns the exit status and the full stderr.
    fn sigterm_and_wait(mut self) -> (std::process::ExitStatus, String) {
        let ok = Command::new("kill")
            .arg(self.child.id().to_string())
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill(1) failed");
        let status = self.child.wait().expect("wait");
        let stderr = self.stderr.take().unwrap().join().expect("stderr drain");
        (status, stderr)
    }

    /// SIGKILL — no destructors, no drain; the durable recovery path has
    /// to cope. Returns nothing: the state dir is the surviving artifact.
    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL");
        let _ = self.child.wait();
        let _ = self.stderr.take().unwrap().join();
    }
}

/// Writes a full script, half-closes, and reads every response line.
fn drive(server: &Server, script: &str) -> String {
    let mut stream = server.connect();
    stream.write_all(script.as_bytes()).expect("send script");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read responses");
    out
}

/// One request/response exchange on an open connection.
fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    resp
}

/// Addresses a v1 request line to a named session by injecting the
/// envelope key (decode ignores key order).
fn in_session(line: &str, session: &str) -> String {
    line.replacen("{\"v\":1,", &format!("{{\"v\":1,\"session\":\"{session}\","), 1)
}

/// The committed stdio golden must replay byte-identically over TCP: a
/// session-less connection addresses the `default` session and responses
/// never carry a session field. Shutdown afterwards is graceful: SIGTERM
/// → drain → exit 0.
#[test]
fn tcp_default_session_replays_the_stdio_golden_byte_identically() {
    let root = repo_root();
    let script = std::fs::read_to_string(root.join("scripts/serve-smoke.jsonl")).unwrap();
    let golden = std::fs::read_to_string(root.join("tests/golden/serve_smoke.jsonl")).unwrap();

    let server = Server::start(&[]);
    let got = drive(&server, &script);
    assert_eq!(got, golden, "TCP transcript diverged from the stdio golden");

    let (status, stderr) = server.sigterm_and_wait();
    assert_eq!(status.code(), Some(0), "graceful shutdown must exit 0");
    assert!(stderr.contains("shutdown requested"), "{stderr}");
}

/// Three concurrent clients, each in its own session, each replaying the
/// smoke script: every per-session transcript must be byte-identical to
/// the committed golden regardless of cross-session interleaving.
#[test]
fn concurrent_sessions_each_replay_the_golden_byte_identically() {
    let root = repo_root();
    let script = std::fs::read_to_string(root.join("scripts/serve-smoke.jsonl")).unwrap();
    let golden = std::fs::read_to_string(root.join("tests/golden/serve_smoke.jsonl")).unwrap();

    let server = Server::start(&[]);
    let clients: Vec<_> = (0..3)
        .map(|i| {
            let name = format!("client-{i}");
            let mut lines =
                vec![format!("{{\"v\":1,\"req\":{{\"OpenSession\":{{\"session\":\"{name}\"}}}}}}")];
            for line in script.lines() {
                let t = line.trim();
                if t.is_empty() || t.starts_with('#') {
                    continue;
                }
                lines.push(in_session(t, &name));
            }
            let script = lines.join("\n") + "\n";
            let addr = server.addr.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(&addr).unwrap();
                stream.write_all(script.as_bytes()).unwrap();
                stream.shutdown(Shutdown::Write).unwrap();
                let mut out = String::new();
                stream.read_to_string(&mut out).unwrap();
                (name, out)
            })
        })
        .collect();
    for c in clients {
        let (name, got) = c.join().expect("client thread");
        let (first, rest) = got.split_once('\n').expect("at least the open response");
        assert!(first.contains("SessionOpened"), "{name}: {first}");
        assert!(first.contains(&name), "{name}: {first}");
        assert_eq!(rest, golden, "{name}: per-session transcript diverged from the golden");
    }
    let (status, _) = server.sigterm_and_wait();
    assert_eq!(status.code(), Some(0));
}

/// SIGTERM with a connection mid-session: the in-flight request is
/// answered (drained), the connection closes, and the server exits 0.
#[test]
fn sigterm_drains_open_connections_and_exits_0() {
    let server = Server::start(&[]);
    let mut stream = server.connect();
    let resp = roundtrip(&mut stream, "{\"v\":1,\"req\":\"Snapshot\"}");
    assert!(resp.contains("\"State\""), "{resp}");

    let (status, stderr) = server.sigterm_and_wait();
    assert_eq!(status.code(), Some(0), "stderr:\n{stderr}");
    assert!(stderr.contains("draining"), "{stderr}");
    assert!(stderr.contains("WALs synced"), "{stderr}");
    // The server closed our connection as part of the drain.
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "unexpected bytes after shutdown: {rest}");
}

/// The `--max-connections` cap answers excess connects with exactly one
/// protocol `Error` line, then closes; existing connections are
/// unaffected.
#[test]
fn connection_cap_rejects_with_one_protocol_error_line() {
    let server = Server::start(&["--max-connections", "1"]);
    let mut first = server.connect();
    // Prove the first connection is registered before the second tries.
    assert!(roundtrip(&mut first, "{\"v\":1,\"req\":\"Snapshot\"}").contains("\"State\""));

    let mut second = server.connect();
    let mut rejection = String::new();
    second.read_to_string(&mut rejection).expect("read rejection");
    let lines: Vec<&str> = rejection.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one line: {rejection:?}");
    assert!(lines[0].contains("\"code\":\"protocol\""), "{rejection}");
    assert!(lines[0].contains("--max-connections"), "{rejection}");

    // The surviving connection still answers.
    assert!(roundtrip(&mut first, "{\"v\":1,\"req\":\"Snapshot\"}").contains("\"State\""));
    drop(first);
    let (status, _) = server.sigterm_and_wait();
    assert_eq!(status.code(), Some(0));
}

/// A connection that sends nothing for longer than `--idle-timeout-ms`
/// is told why and closed.
#[test]
fn idle_connections_time_out() {
    let server = Server::start(&["--idle-timeout-ms", "400"]);
    let stream = server.connect();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("idle notice");
    assert!(line.contains("idle timeout"), "{line}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("closed");
    assert!(rest.is_empty());
    let (status, _) = server.sigterm_and_wait();
    assert_eq!(status.code(), Some(0));
}

/// The per-connection `--max-line-bytes` guard: an over-cap line answers
/// an in-protocol error and the connection keeps serving.
#[test]
fn oversized_lines_answer_in_protocol_and_the_connection_survives() {
    let server = Server::start(&["--max-line-bytes", "64"]);
    let mut stream = server.connect();
    let long = format!("{{\"v\":1,\"req\":{{\"pad\":\"{}\"}}}}", "x".repeat(256));
    let resp = roundtrip(&mut stream, &long);
    assert!(resp.contains("--max-line-bytes"), "{resp}");
    let resp = roundtrip(&mut stream, "{\"v\":1,\"req\":\"Snapshot\"}");
    assert!(resp.contains("\"State\""), "{resp}");
    let (status, _) = server.sigterm_and_wait();
    assert_eq!(status.code(), Some(0));
}

/// Unknown sessions answer the typed `unknown-session` error; opening,
/// listing, and closing route over the wire.
#[test]
fn session_control_over_the_wire() {
    let server = Server::start(&[]);
    let mut stream = server.connect();
    let resp = roundtrip(&mut stream, &in_session("{\"v\":1,\"req\":\"Snapshot\"}", "ghost"));
    assert!(resp.contains("\"code\":\"unknown-session\""), "{resp}");
    let resp =
        roundtrip(&mut stream, "{\"v\":1,\"req\":{\"OpenSession\":{\"session\":\"ghost\"}}}");
    assert!(resp.contains("SessionOpened"), "{resp}");
    let resp = roundtrip(&mut stream, &in_session("{\"v\":1,\"req\":\"Snapshot\"}", "ghost"));
    assert!(resp.contains("\"State\""), "{resp}");
    let resp = roundtrip(&mut stream, "{\"v\":1,\"req\":\"ListSessions\"}");
    assert!(resp.contains("\"default\"") && resp.contains("\"ghost\""), "{resp}");
    let resp =
        roundtrip(&mut stream, "{\"v\":1,\"req\":{\"CloseSession\":{\"session\":\"ghost\"}}}");
    assert!(resp.contains("SessionClosed"), "{resp}");
    let resp = roundtrip(&mut stream, &in_session("{\"v\":1,\"req\":\"Snapshot\"}", "ghost"));
    assert!(resp.contains("\"code\":\"unknown-session\""), "{resp}");
    let (status, _) = server.sigterm_and_wait();
    assert_eq!(status.code(), Some(0));
}

/// SIGKILL a durable multi-session server mid-traffic, reboot over the
/// same state directory: every named session recovers at boot (with
/// `[session:NAME]`-prefixed diagnostics) and answers exactly what it
/// answered before the kill. A torn record planted at the end of one
/// session's log — a crash mid-append — is truncated, and the boot banner
/// says so, as it does on stdio.
#[test]
fn sigkill_then_reboot_recovers_every_durable_session() {
    let dir = std::env::temp_dir().join(format!("ses-net-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_string();

    let server = Server::start(&["--state-dir", &dir_s]);
    let mut stream = server.connect();
    assert!(roundtrip(&mut stream, "{\"v\":1,\"req\":{\"OpenSession\":{\"session\":\"crash\"}}}")
        .contains("\"durable\":true"));
    let sched =
        in_session("{\"v\":1,\"req\":{\"Schedule\":{\"algorithm\":\"INC\",\"k\":4}}}", "crash");
    assert!(roundtrip(&mut stream, &sched).contains("Scheduled"));
    let snap_before =
        roundtrip(&mut stream, &in_session("{\"v\":1,\"req\":\"Snapshot\"}", "crash"));
    server.sigkill();

    // Plant a torn tail: a header prefix after the last whole record.
    let wal = ses_core::durable::wal_path(&dir.join("crash"), 0);
    let torn_at = std::fs::metadata(&wal).expect("crash session log").len();
    let mut log = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    log.write_all(&[0xAB; 5]).unwrap();
    drop(log);

    let server = Server::start(&["--state-dir", &dir_s]);
    let mut stream = server.connect();
    let snap_after = roundtrip(&mut stream, &in_session("{\"v\":1,\"req\":\"Snapshot\"}", "crash"));
    assert_eq!(snap_after, snap_before, "recovered session diverged from its pre-kill answers");
    let list = roundtrip(&mut stream, "{\"v\":1,\"req\":\"ListSessions\"}");
    assert!(list.contains("\"crash\"") && list.contains("\"default\""), "{list}");
    let (status, stderr) = server.sigterm_and_wait();
    assert_eq!(status.code(), Some(0));
    assert!(stderr.contains("[session:crash]"), "{stderr}");
    assert!(stderr.contains("recovered generation"), "{stderr}");
    let torn_line = format!(
        "[session:crash]: recovered generation 0 (1 log records replayed, torn final record \
         truncated at byte {torn_at}); dataset flags ignored"
    );
    assert!(stderr.contains(&torn_line), "{stderr}");

    // `ses recover` understands the multi-session layout: one read-only
    // report per session subdirectory, in sorted name order.
    let out = ses()
        .args(["recover", "--state-dir", &dir_s])
        .output()
        .expect("run recover on a multi-session dir");
    assert!(out.status.success(), "recover exit: {:?}", out.status);
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("multi-session (2)"), "{report}");
    let crash_at = report.find("[session:crash]").expect("crash report");
    let default_at = report.find("[session:default]").expect("default report");
    assert!(crash_at < default_at, "sessions must report in sorted order:\n{report}");
    assert!(report.contains("schedule:         4 assignment(s)"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

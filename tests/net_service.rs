//! The network layer's two load-bearing guarantees, proven differentially:
//!
//! * **Concurrent-read equivalence** — a `Query`/`Snapshot` issued while a
//!   mutation is in flight on the same session answers with bytes
//!   identical to either the pre-mutation or the post-mutation serialized
//!   answer, **never a blend** — for every registry scheduler × every
//!   dataset at 1 and 4 worker threads. The published-view design makes a
//!   blend structurally impossible (a view is an immutable value swapped
//!   atomically); this test is the observable proof.
//! * **Cross-session isolation** — mutations hammering session A cannot
//!   perturb one byte of session B's transcript: a fuzz-style interleave
//!   across concurrent "connections" answers B exactly like a
//!   single-session run.
//!
//! Both proofs compare encoded wire bytes, not parsed values — the same
//! currency the golden transcripts pin.

use social_event_scheduling::algorithms::service::net::{NetSession, SessionBackend};
use social_event_scheduling::algorithms::service::{wire, Query};
use social_event_scheduling::algorithms::{Request, SchedulerKind, SesService, SessionManager};
use social_event_scheduling::core::parallel::Threads;
use social_event_scheduling::datasets::ops::{self, OpStreamParams};
use social_event_scheduling::datasets::Dataset;
use social_event_scheduling::Instance;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Explicit thread counts (the CI thread-matrix additionally re-runs this
/// whole file under `SES_THREADS=1` and `=4`).
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn schedule_req(algorithm: &str, k: usize) -> Request {
    Request::Schedule {
        algorithm: algorithm.to_string(),
        k,
        threads: None,
        gate: false,
        profile: false,
        constraints: None,
    }
}

/// The read-only probes the equivalence proof fires: the full state
/// summary plus one lookup of each query kind.
fn read_probes() -> Vec<Request> {
    vec![
        Request::Snapshot,
        Request::Query { query: Query::Event { event: 0 } },
        Request::Query { query: Query::Interval { interval: 0 } },
        Request::Query { query: Query::User { user: 0 } },
    ]
}

/// Runs the proof for one (instance, scheduler, k, threads) cell: capture
/// the serialized pre- and post-mutation answer for every probe, fire the
/// mutation on a second thread, and hammer reads while it runs — every
/// answer must be bit-identical to one of the two serialized answers.
fn prove_reads_never_blend(
    label: &str,
    inst: &Instance,
    algorithm: &str,
    k: usize,
    threads: usize,
) {
    let threads = Threads::new(threads);
    let probes = read_probes();
    let mutate = schedule_req(algorithm, k);

    // Serialized references: the answer before the mutation, and the
    // answer after it (computed on an identical shadow session — the
    // engine is deterministic, so the shadow's post-state is the
    // session's post-state).
    let session = Arc::new(NetSession::new(SessionBackend::Plain(
        SesService::new(inst.clone()).with_threads(threads),
    )));
    let pre: Vec<String> =
        probes.iter().map(|p| wire::encode_response(&session.handle(p))).collect();
    let mut shadow = SesService::new(inst.clone()).with_threads(threads);
    shadow.handle(&mutate);
    let post: Vec<String> =
        probes.iter().map(|p| wire::encode_response(&shadow.handle(p))).collect();
    assert_ne!(pre, post, "{label}: mutation must change what reads observe");

    let writer_session = Arc::clone(&session);
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(std::sync::Barrier::new(2));
    let writer_done = Arc::clone(&done);
    let writer_start = Arc::clone(&start);
    let writer_mutate = mutate.clone();
    let writer = std::thread::spawn(move || {
        writer_start.wait();
        // Re-running the identical mutation is a state no-op after the
        // first publication, so this widens the in-flight window the
        // reader races against without changing the pre→post story.
        for _ in 0..3 {
            writer_session.handle(&writer_mutate);
        }
        writer_done.store(true, Ordering::SeqCst);
    });

    // Reads concurrent with the in-flight mutation: never block on it,
    // never observe a torn state. At least one full probe pass always
    // runs (racing the first mutation from the starting line).
    start.wait();
    loop {
        for (i, probe) in probes.iter().enumerate() {
            let got = wire::encode_response(&session.handle(probe));
            assert!(
                got == pre[i] || got == post[i],
                "{label}: concurrent read observed a blended state:\n  got  {got}\n  pre  {}\n  post {}",
                pre[i],
                post[i],
            );
        }
        if done.load(Ordering::SeqCst) {
            break;
        }
    }
    writer.join().expect("writer thread");

    // After the mutation publishes, reads settle on the post answer.
    for (i, probe) in probes.iter().enumerate() {
        assert_eq!(wire::encode_response(&session.handle(probe)), post[i], "{label}: probe {i}");
    }
}

/// The acceptance matrix: every registered scheduler × every dataset at 1
/// and 4 threads (EXACT on its tractable shape below).
#[test]
fn concurrent_reads_equal_pre_or_post_mutation_for_every_scheduler_and_dataset() {
    for dataset in Dataset::ALL {
        let inst = dataset.build(150, 24, 6, 0x5E5);
        for threads in THREAD_COUNTS {
            for name in SchedulerKind::ALL.map(SchedulerKind::name) {
                if name == "EXACT" {
                    continue;
                }
                let label = format!("{}/{}/t{threads}", dataset.name(), name);
                prove_reads_never_blend(&label, &inst, name, 8, threads);
            }
        }
    }
}

/// EXACT's proof on a branch-&-bound-tractable shape.
#[test]
fn concurrent_reads_equal_pre_or_post_mutation_for_exact() {
    let inst = Dataset::Zip.build(120, 6, 2, 0xE8A);
    for threads in THREAD_COUNTS {
        prove_reads_never_blend(&format!("Zip/EXACT/t{threads}"), &inst, "exact", 3, threads);
    }
}

/// The mutation mix the isolation fuzz fires at session A: schedules,
/// repairs, op batches, resets — everything that takes the writer lock.
fn mutation_mix(inst: &Instance) -> Vec<Request> {
    let params = OpStreamParams::default().with_ops(24).with_churn(0.5).with_seed(0xF52);
    let stream_ops = ops::generate(inst, &params);
    let mut mix =
        vec![schedule_req("hor", 5), Request::Repair { k: 5, threads: None, gate: false }];
    for chunk in stream_ops.chunks(6) {
        mix.push(Request::ApplyOps { ops: chunk.to_vec(), window: None });
    }
    mix.push(schedule_req("inc", 4));
    mix.push(Request::Reset);
    mix.push(schedule_req("top", 3));
    mix
}

/// The request script session B runs — reads *and* writes, so the test
/// proves full-transcript stability, not just read stability.
fn b_script() -> Vec<String> {
    let mut script = vec![
        wire::encode_request_for("b", &Request::Snapshot),
        wire::encode_request_for("b", &schedule_req("hor-i", 6)),
        wire::encode_request_for("b", &Request::Query { query: Query::Event { event: 3 } }),
        wire::encode_request_for("b", &Request::Repair { k: 6, threads: None, gate: false }),
    ];
    for i in 0..8 {
        script.push(wire::encode_request_for(
            "b",
            &Request::Query { query: Query::User { user: i * 5 } },
        ));
        script.push(wire::encode_request_for("b", &Request::Snapshot));
    }
    script.push(wire::encode_request_for("b", &schedule_req("alg", 4)));
    script
}

/// Cross-session isolation, fuzz-style: two writer "connections" hammer
/// session A (mutations interleaved with a seeded jitter) while a third
/// connection runs session B's script. B's transcript must be
/// byte-identical to a single-session run with no A traffic at all.
#[test]
fn session_b_transcript_identical_under_concurrent_session_a_mutations() {
    let inst = Dataset::Unf.build(150, 24, 6, 0x5E5);
    for threads in THREAD_COUNTS {
        let threads = Threads::new(threads);

        // Reference: B's script on a quiet manager.
        let (quiet, _) =
            SessionManager::new(inst.clone(), threads, None, 1024, 8).expect("boot quiet");
        quiet.open("b").expect("open b");
        let reference: Vec<String> = b_script().iter().map(|l| quiet.handle_line(l)).collect();

        // Loud run: A is hammered from two connections while B executes.
        let (loud, _) = SessionManager::new(inst.clone(), threads, None, 1024, 8).expect("boot");
        loud.open("a").expect("open a");
        loud.open("b").expect("open b");
        let loud = Arc::new(loud);
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|conn| {
                let manager = Arc::clone(&loud);
                let stop = Arc::clone(&stop);
                let mix: Vec<String> =
                    mutation_mix(&inst).iter().map(|r| wire::encode_request_for("a", r)).collect();
                std::thread::spawn(move || {
                    // Deterministic per-connection rotation; runs until B
                    // finishes, so A traffic brackets every B request.
                    let mut i = conn;
                    while !stop.load(Ordering::SeqCst) {
                        manager.handle_line(&mix[i % mix.len()]);
                        i += 1;
                    }
                })
            })
            .collect();

        let got: Vec<String> = b_script().iter().map(|l| loud.handle_line(l)).collect();
        stop.store(true, Ordering::SeqCst);
        for w in writers {
            w.join().expect("writer connection");
        }

        assert_eq!(
            got,
            reference,
            "session B's transcript diverged under concurrent session A mutations (t{})",
            threads.get()
        );
    }
}

/// Control-plane sanity on a busy manager: sessions opened concurrently
/// with traffic resolve, list deterministically (sorted), and close.
#[test]
fn session_control_is_consistent_under_concurrent_traffic() {
    let inst = Dataset::Zip.build(100, 12, 4, 0x77);
    let (manager, boots) =
        SessionManager::new(inst, Threads::sequential(), None, 1024, 16).expect("boot");
    assert_eq!(boots.len(), 1);
    let manager = Arc::new(manager);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let m = Arc::clone(&manager);
            std::thread::spawn(move || {
                let name = format!("worker-{i}");
                m.open(&name).expect("open");
                let line = wire::encode_request_for(&name, &schedule_req("top", 3));
                for _ in 0..5 {
                    let resp = m.handle_line(&line);
                    assert!(resp.contains("Scheduled"), "{resp}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    let names: Vec<String> = manager.list().into_iter().map(|s| s.session).collect();
    assert_eq!(names, vec!["default", "worker-0", "worker-1", "worker-2", "worker-3"]);
    for i in 0..4 {
        manager.close(&format!("worker-{i}")).expect("close");
    }
    assert_eq!(manager.len(), 1);
}

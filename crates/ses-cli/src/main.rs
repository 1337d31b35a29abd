//! `ses` — command-line driver for the SES reproduction.
//!
//! ```text
//! ses run        --dataset <meetup|concerts|unf|zip> --k 20 [--users N] [--events N]
//!                [--intervals N] [--seed S] [--threads N]
//!                [--algorithms ALG,INC,HOR,HOR-I,TOP,RAND]
//! ses experiment <fig5|fig6|fig7|fig8|fig9|fig10a|fig10b|dynamic|constrained|
//!                 windowed|scale|summary|params|all>
//!                [--users N] [--full] [--seed S] [--threads N]
//!                [--json out.json] [--csv out.csv]
//! ses stream     --dataset <...> [--k N] [--ops N] [--churn C] [--user-churn C]
//!                [--constraint-churn C] [--constraints FAMILY] [--users N]
//!                [--events N] [--intervals N] [--seed S] [--threads N]
//!                [--window N [--redundancy R] [--burst B]] [--verify] [--quiet]
//! ses generate   --dataset <...> [--users N] [--events N] [--intervals N] [--seed S]
//!                --out instance.json
//! ses serve      --dataset <...> [--users N] [--events N] [--intervals N] [--seed S]
//!                [--threads N] [--constraints FAMILY] [--input FILE]
//!                [--state-dir DIR [--snapshot-ops N]] [--max-line-bytes N]
//! ses recover    --state-dir DIR [--threads N]
//! ses help
//! ```
//!
//! `--constraints <capacity-tight|conflict-clique|precedence-chain|mixed>`
//! installs a seeded constraint family (venue capacities, conflict
//! cliques, precedence chains) on the instance before scheduling.
//!
//! `--threads 0` (the default) uses every hardware thread. Scheduling
//! results and reports are bit-identical for every thread count; the flag
//! only changes wall-clock time. Flags are validated against the active
//! subcommand — a typo errors out with a suggestion instead of silently
//! running with defaults.

mod args;
mod commands;

use args::Args;
use ses_core::error::ServiceError;
use std::process::ExitCode;

/// Exit codes follow the common CLI convention: `2` for usage errors (bad
/// flags, unknown subcommands/algorithms — the caller's mistake), `1` for
/// runtime failures. [`ServiceError::is_usage`] is the single classifier.
fn exit_code(e: &ServiceError) -> ExitCode {
    if e.is_usage() {
        ExitCode::from(2)
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)).and_then(|a| {
        a.validate()?;
        Ok(a)
    }) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error[{}]: {e}", e.code());
            return exit_code(&e);
        }
    };

    let result = match args.command.as_str() {
        "run" => commands::run::exec(&args),
        "experiment" => commands::experiment::exec(&args),
        "generate" => commands::generate::exec(&args),
        "stream" => commands::stream::exec(&args),
        "serve" => commands::serve::exec(&args),
        "recover" => commands::recover::exec(&args),
        "bench-baseline" => commands::bench_baseline::exec(&args),
        "" | "help" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(ServiceError::invalid(format!("unknown command '{other}' (try `ses help`)"))),
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // The bracketed code is the stable, grep-friendly half of the
            // contract (exit-code tests key on it); the message may evolve.
            eprintln!("error[{}]: {e}", e.code());
            exit_code(&e)
        }
    }
}

const HELP: &str = "\
ses — Social Event Scheduling (EDBT 2019 reproduction)

USAGE:
  ses run        --dataset <meetup|concerts|unf|zip> [--k N] [--users N]
                 [--events N] [--intervals N] [--seed S] [--threads N]
                 [--algorithms ALG,INC,HOR,HOR-I,TOP,RAND] [--gate] [--profile]
                 [--constraints FAMILY] [--storage KIND] [--levels N]
                 [--input instance.json]
  ses experiment <fig5|fig6|fig7|fig8|fig9|fig10a|fig10b|ablation-schemes|
                  ablation-refine|dynamic|constrained|windowed|scale|summary|
                  params|all>
                 [--users N] [--full] [--seed S] [--threads N]
                 [--json PATH] [--csv PATH]
  ses stream     --dataset <...> [--k N] [--ops N] [--churn C] [--user-churn C]
                 [--constraint-churn C] [--constraints FAMILY] [--users N]
                 [--events N] [--intervals N] [--seed S] [--threads N]
                 [--window N [--redundancy R] [--burst B]] [--verify] [--quiet]
                 [--storage KIND] [--levels N] [--input instance.json]
  ses generate   --dataset <...> [--users N] [--events N] [--intervals N]
                 [--seed S] --out instance.json [--storage KIND] [--levels N]
  ses serve      --dataset <...> [--users N] [--events N] [--intervals N]
                 [--seed S] [--threads N] [--constraints FAMILY]
                 [--storage KIND] [--levels N] [--input instance.json]
                 [--state-dir DIR [--snapshot-ops N]] [--max-line-bytes N]
                 [--listen HOST:PORT [--max-sessions N] [--max-connections N]
                  [--idle-timeout-ms MS]]
  ses recover    --state-dir DIR [--threads N]
  ses bench-baseline [--targets micro_scoring,...] [--out BENCH_BASELINE.json]
                 [--label NOTE] [--check FACTOR] [--from RUN.json]
  ses help

`--threads N` sets the worker count (default 0 = all hardware threads):
engine/scheduler threads for `run`/`stream`, sweep-row fan-out for
`experiment`. Results are bit-identical for every N.

`run --gate` turns on the bound-first gate (INC/HOR-I/LAZY): candidates
are seeded with a cheap separable upper bound and only swept when the
bound survives the running threshold. Schedules and utilities are
bit-identical to ungated runs; the `skips` column counts deferred
sweeps. `run --profile` appends a per-phase engine timing breakdown
(setup / score / apply / other) under each row.

`bench-baseline` runs the criterion bench targets (all sixteen by default)
and appends one annotated run — medians, rustc, commit — to the
committed BENCH_BASELINE.json trajectory; with `--check FACTOR` it
instead compares fresh medians against the last recorded run and fails
on a > FACTOR x regression (the CI perf-smoke gate).

`stream` replays a seeded delta-op stream (event/user churn at rate
`--churn`, interest drift otherwise) through the incremental repair
scheduler and prints its work next to a per-op full recompute;
`--verify` additionally checks every repaired schedule against an INC
recompute, bit for bit. `--constraint-churn C` makes a C-slice of the
stream edit the constraint set (conflicts, precedences, capacities).
`--window N` switches to windowed ingestion: a bursty feed (redundant
re-drifts at rate `--redundancy`, bursts of `--burst` arrivals) is
chunked into N-op windows, each coalesced to a minimal batch and
repaired in one flush; the run reports sustained ops/sec against
op-at-a-time ingestion of the same feed, whose end state must match
bit-for-bit.

`--storage <auto|dense|sparse|compressed>` (run/stream/serve/generate)
picks the interest-matrix layout. `auto` (default) keeps each dataset's
native layout below 100k users and switches to the dictionary-encoded
compressed layout at or above it. Scheduling results are bit-identical
across layouts; only memory and build time change. `--levels N`
quantizes interest draws onto an N-step grid (0 = continuous; defaults
to 256 when the compressed layout is selected) so the compression
dictionary stays small. `run --profile` reports the resident bytes.

`--constraints FAMILY` (run/stream/serve) installs a seeded constraint
family before scheduling: capacity-tight (venue slot budgets),
conflict-clique (mutual exclusion), precedence-chain (ordering), or
mixed. Every scheduler admits candidates through the same feasibility
gate, so constrained runs stay bit-identical across thread counts.

`serve` turns the process into a long-lived session: one JSON request
per stdin line (protocol v1: {\"v\":1,\"req\":{...}}), one JSON response
per stdout line. The session keeps warm state across requests —
one shared scratch pool and the incremental repairer's caches — and
answers Schedule / ApplyOps / Repair / Query / Snapshot / Reset.
Responses carry no wall-clock fields, so a seeded request script always
produces a byte-identical response log (see scripts/serve-smoke.jsonl).
Input is guarded: request lines longer than `--max-line-bytes` (default
16 MiB) and JSON nested deeper than 128 levels are answered with
protocol-coded Error responses instead of being buffered or parsed.

`serve --state-dir DIR` makes the session durable: every mutating
request is fsynced to a write-ahead log before it is applied, the log
folds into a checksummed snapshot every `--snapshot-ops` records
(default 1024, also on the Persist request), and startup auto-recovers
the newest valid state — replaying the log tail and truncating a torn
final record. `ses recover --state-dir DIR` prints the same recovery as
a read-only dry run: generations on disk, the chosen snapshot, replay
count, torn-tail/fallback status, and the recovered session summary.

`serve --listen HOST:PORT` turns the session service into a TCP
multi-session server: the same JSON-lines protocol per connection, plus
an optional \"session\" envelope key naming the target session (absent =
the `default` session, so stdio scripts replay byte-identically). Many
named sessions live in one process (OpenSession / CloseSession /
ListSessions manage them, `--max-sessions` caps them); per session,
mutating requests serialize while Query/Snapshot answer concurrently
from an immutable published view — reads never block on writes and are
bit-identical to a serialized execution. With `--state-dir DIR` each
session persists under DIR/<name>, every one recovers at boot, and
`ses recover` prints one per-session report for the directory.
SIGTERM/SIGINT shut down gracefully: drain in-flight requests, fsync
every write-ahead log, exit 0. Connection guards: `--max-connections`
(excess connects are answered with one protocol Error line),
`--idle-timeout-ms` (quiet connections are closed), and the same
`--max-line-bytes` cap per connection.

`--input instance.json` (run/stream/serve) schedules the instance file
`ses generate` wrote instead of building one from the dataset flags. A
file that fails to parse or validate is typed corruption: exit 1 with
`error[corrupt]` on stderr.

Exit codes: 0 success, 1 runtime failure, 2 usage error (bad flag or
unknown subcommand/algorithm).

EXAMPLES:
  ses run --dataset zip --k 50 --users 1000 --threads 4
  ses experiment fig5 --users 400
  ses experiment all --users 200 --csv results.csv --threads 8
  ses stream --dataset unf --users 200 --ops 100 --churn 0.5 --verify
  ses stream --dataset unf --ops 200 --window 32 --redundancy 0.6 --verify
  ses run --dataset zip --users 100000 --events 60 --intervals 12 \\
          --storage compressed --levels 256 --profile
";

//! `ses stream` — replay a seeded delta-op stream with incremental repair
//! and compare its work against a full recompute per op.
//!
//! The incremental side is a thin client of [`SesService`]: one `Repair`
//! request arms the warm repairer, then every op flows through
//! `apply_ops`. The per-op full recompute stays a direct cold
//! [`StreamScheduler`] build — it is the measurement baseline, not part of
//! the session.
//!
//! With `--window N` the command switches to windowed ingestion: a bursty,
//! redundancy-heavy feed (`--redundancy`, `--burst`) is chunked into
//! windows of `N` ops, each window coalesced to a minimal batch and
//! repaired in one flush, and the run ends with a sustained ops/sec
//! comparison against op-at-a-time ingestion of the *same* feed — whose
//! end state must match the windowed one bit-for-bit.

use crate::args::Args;
use crate::commands::{
    apply_constraints_flag, dataset_from_flags, input_instance_flag, storage_from_flags,
};
use ses_algorithms::stream::StreamScheduler;
use ses_algorithms::{RunConfig, Scheduler, SchedulerKind, SesService};
use ses_core::delta::{self, DeltaOp};
use ses_core::error::ServiceError;
use ses_core::model::Instance;
use ses_core::parallel::Threads;
use ses_core::stats::Stats;
use ses_datasets::ops::{self, BurstParams, OpStreamParams};

/// Executes the `stream` subcommand.
pub fn exec(args: &Args) -> Result<(), ServiceError> {
    let (dataset, users, events, intervals, seed) = dataset_from_flags(args)?;
    let (storage, levels) = storage_from_flags(args, dataset, users)?;
    let k = args.num_flag("k", 20usize)?;
    let num_ops = args.num_flag("ops", 50usize)?;
    let churn = args.num_flag("churn", 0.3f64)?;
    let user_churn = args.num_flag("user-churn", 0.3f64)?;
    let constraint_churn = args.num_flag("constraint-churn", 0.0f64)?;
    let threads = Threads::new(args.num_flag("threads", 0usize)?);
    let window = args.num_flag("window", 0usize)?;
    let redundancy = args.num_flag("redundancy", 0.5f64)?;
    let burst = args.num_flag("burst", 16usize)?;
    let verify = args.switch("verify");
    let quiet = args.switch("quiet");
    for (name, v) in [
        ("churn", churn),
        ("user-churn", user_churn),
        ("constraint-churn", constraint_churn),
        ("redundancy", redundancy),
    ] {
        if !(0.0..=1.0).contains(&v) {
            return Err(ServiceError::invalid(format!("flag --{name}: {v} is not within [0, 1]")));
        }
    }
    if window == 0 {
        for knob in ["redundancy", "burst"] {
            if args.opt_flag(knob).is_some() {
                return Err(ServiceError::invalid(format!(
                    "flag --{knob} shapes the windowed feed; it requires --window"
                )));
            }
        }
    }

    let mut base = match input_instance_flag(args)? {
        Some(inst) => inst,
        None => dataset.build_with(users, events, intervals, seed, Some(storage), levels),
    };
    let (users, events, intervals) = (base.num_users(), base.num_events(), base.num_intervals());
    let family = apply_constraints_flag(args, &mut base, seed)?;
    let params = OpStreamParams::default()
        .with_ops(num_ops)
        .with_churn(churn)
        .with_user_churn(user_churn)
        .with_constraint_churn(constraint_churn)
        .with_seed(seed ^ 0x0D5);
    if window > 0 {
        let constraints_note = match family {
            Some(f) => format!(
                " constraints={}({} rules) constraint-churn={constraint_churn}",
                f.name(),
                base.constraints.len()
            ),
            None if constraint_churn > 0.0 => format!(" constraint-churn={constraint_churn}"),
            None => String::new(),
        };
        eprintln!(
            "# dataset={} |U|={users} |E|={events} |T|={intervals} k={k} seed={seed} \
             backbone-ops={num_ops} window={window} burst={burst} redundancy={redundancy} \
             threads={threads}{constraints_note}",
            dataset.name(),
        );
        let burst_params = BurstParams::default()
            .with_ops(params)
            .with_burst_len(burst.max(1))
            .with_redundancy(redundancy);
        return exec_windowed(base, &burst_params, window, k, threads, verify, quiet);
    }
    let stream_ops = ops::generate(&base, &params);

    eprintln!(
        "# dataset={} |U|={users} |E|={events} |T|={intervals} k={k} seed={seed} \
         ops={num_ops} churn={churn} user-churn={user_churn} threads={threads}{}",
        dataset.name(),
        match family {
            Some(f) => format!(
                " constraints={}({} rules) constraint-churn={constraint_churn}",
                f.name(),
                base.constraints.len()
            ),
            None if constraint_churn > 0.0 => format!(" constraint-churn={constraint_churn}"),
            None => String::new(),
        },
    );
    let mut service = SesService::new(base.clone()).with_threads(threads);
    let cold = service.repair(k, RunConfig::threaded(threads))?;
    eprintln!(
        "# cold build: {} cells scored, {} user-ops, utility {:.4}",
        cold.report.rescored, cold.report.stats.user_ops, cold.report.utility
    );

    if !quiet {
        println!(
            "{:>4} {:>14} {:>5} {:>6} {:>9} {:>10} {:>12} {:>14} {:>7} {:>12}",
            "#",
            "op",
            "|E|",
            "|U|",
            "rescored",
            "examined",
            "rebuilt-exam",
            "utility",
            "|S|",
            "repair-ms"
        );
    }
    let mut mat = base;
    let mut repair = Stats::new();
    let mut rebuild = Stats::new();
    let mut repair_ms = 0.0;
    let mut rebuild_ms = 0.0;
    for (i, op) in stream_ops.iter().enumerate() {
        delta::apply(&mut mat, op).map_err(|e| ServiceError::delta(i, e))?;
        let rep = service
            .apply_ops(std::slice::from_ref(op))
            .map_err(|e| match e {
                // Re-index the single-op batch error to the stream position.
                ServiceError::Delta { source, .. } => ServiceError::delta(i, source),
                other => other,
            })?
            .pop()
            .expect("one repair report per applied op");
        let cold = StreamScheduler::new(&mat, k, threads);
        repair += rep.stats;
        repair_ms += rep.time_ms;
        rebuild += cold.last_repair().stats;
        rebuild_ms += cold.last_repair().time_ms;
        if verify {
            let inc = SchedulerKind::Inc.run_threaded(&mat, k, threads);
            let repaired = service.current_schedule().expect("warm service has a schedule");
            let utility = service.current_utility().expect("warm service has a utility");
            if inc.schedule.assignments() != repaired.assignments()
                || inc.utility.to_bits() != utility.to_bits()
            {
                return Err(ServiceError::failed(format!(
                    "op {i} ({}): incremental repair diverged from INC recompute \
                     (utility {} vs {})",
                    op.kind(),
                    utility,
                    inc.utility
                )));
            }
        }
        if !quiet {
            println!(
                "{:>4} {:>14} {:>5} {:>6} {:>9} {:>10} {:>12} {:>14.4} {:>7} {:>12.2}",
                i,
                op.kind(),
                mat.num_events(),
                mat.num_users(),
                rep.rescored,
                rep.stats.assignments_examined,
                cold.last_repair().stats.assignments_examined,
                rep.utility,
                rep.schedule_len,
                rep.time_ms,
            );
        }
    }

    let ratio = |a: u64, b: u64| if b == 0 { 1.0 } else { a as f64 / b as f64 };
    println!("\n# totals over {num_ops} ops (repair vs per-op full recompute)");
    println!("{:>16} {:>16} {:>16} {:>8}", "metric", "incremental", "recompute", "ratio");
    for (name, a, b) in [
        ("examined", repair.assignments_examined, rebuild.assignments_examined),
        ("user-ops", repair.user_ops, rebuild.user_ops),
        ("scores", repair.score_computations, rebuild.score_computations),
    ] {
        println!("{name:>16} {a:>16} {b:>16} {:>8.3}", ratio(a, b));
    }
    println!(
        "{:>16} {repair_ms:>16.1} {rebuild_ms:>16.1} {:>8.3}",
        "time-ms",
        if rebuild_ms > 0.0 { repair_ms / rebuild_ms } else { 1.0 }
    );
    println!(
        "# final: |E|={} |U|={} |S|={} utility={:.4}{}",
        service.instance().num_events(),
        service.instance().num_users(),
        service.current_schedule().map_or(0, |s| s.len()),
        service.current_utility().unwrap_or(0.0),
        if verify { " — verified against INC recompute at every op" } else { "" }
    );
    Ok(())
}

/// Windowed ingestion driver: chunk a bursty feed into windows, coalesce
/// and repair each in one flush, then race the same feed op-at-a-time and
/// report sustained ops/sec for both. The two end states must agree
/// bit-for-bit regardless of `--verify`; the switch additionally checks
/// every window against a shadow materialization and an INC recompute.
fn exec_windowed(
    base: Instance,
    burst_params: &BurstParams,
    window: usize,
    k: usize,
    threads: Threads,
    verify: bool,
    quiet: bool,
) -> Result<(), ServiceError> {
    let feed = ops::generate_bursts(&base, burst_params);
    let total = feed.len();
    let span_ms = feed.last().map_or(0, |t| t.at_ms);
    eprintln!("# feed: {total} timestamped ops across {span_ms} ms of simulated arrivals");

    let mut service = SesService::new(base.clone()).with_threads(threads);
    let cold = service.repair(k, RunConfig::threaded(threads))?;
    eprintln!(
        "# cold build: {} cells scored, {} user-ops, utility {:.4}",
        cold.report.rescored, cold.report.stats.user_ops, cold.report.utility
    );

    if !quiet {
        println!(
            "{:>4} {:>5} {:>5} {:>5} {:>6} {:>9} {:>10} {:>14} {:>7} {:>12}",
            "win",
            "ops",
            "coal",
            "|E|",
            "|U|",
            "rescored",
            "examined",
            "utility",
            "|S|",
            "repair-ms"
        );
    }
    let mut mat = base.clone();
    let mut repair = Stats::new();
    let mut coalesced_total = 0usize;
    let mut flush_secs = 0.0f64;
    let mut flushes = 0usize;
    for (w, chunk) in feed.chunks(window).enumerate() {
        let ops: Vec<DeltaOp> = chunk.iter().map(|t| t.op.clone()).collect();
        let start = std::time::Instant::now();
        let (reports, summaries) =
            service.apply_ops_windowed(&ops, window).map_err(|e| match e {
                // Re-index the chunk-relative error to the feed position.
                ServiceError::Delta { op_index, source } => {
                    ServiceError::delta(w * window + op_index, source)
                }
                other => other,
            })?;
        flush_secs += start.elapsed().as_secs_f64();
        flushes += 1;
        let summary = summaries[0];
        let rep = reports.last().expect("one report per op in a warm windowed flush");
        coalesced_total += summary.coalesced;
        repair += rep.stats;
        if verify {
            for (j, op) in ops.iter().enumerate() {
                delta::apply(&mut mat, op).map_err(|e| ServiceError::delta(w * window + j, e))?;
            }
            if *service.instance() != mat {
                return Err(ServiceError::failed(format!(
                    "window {w}: coalesced instance diverged from op-at-a-time materialization"
                )));
            }
            let inc = SchedulerKind::Inc.run_threaded(&mat, k, threads);
            let repaired = service.current_schedule().expect("warm service has a schedule");
            let utility = service.current_utility().expect("warm service has a utility");
            if inc.schedule.assignments() != repaired.assignments()
                || inc.utility.to_bits() != utility.to_bits()
            {
                return Err(ServiceError::failed(format!(
                    "window {w}: windowed repair diverged from INC recompute \
                     (utility {utility} vs {})",
                    inc.utility
                )));
            }
        }
        if !quiet {
            println!(
                "{:>4} {:>5} {:>5} {:>5} {:>6} {:>9} {:>10} {:>14.4} {:>7} {:>12.2}",
                w,
                summary.ops,
                summary.coalesced,
                service.instance().num_events(),
                service.instance().num_users(),
                rep.rescored,
                rep.stats.assignments_examined,
                rep.utility,
                rep.schedule_len,
                rep.time_ms,
            );
        }
    }

    // Race the identical feed op-at-a-time from the same warm start; the
    // end states must be bit-identical (the coalescing soundness bar).
    let mut baseline = SesService::new(base).with_threads(threads);
    baseline.repair(k, RunConfig::threaded(threads))?;
    let start = std::time::Instant::now();
    for (i, timed) in feed.iter().enumerate() {
        baseline.apply_ops(std::slice::from_ref(&timed.op)).map_err(|e| match e {
            ServiceError::Delta { source, .. } => ServiceError::delta(i, source),
            other => other,
        })?;
    }
    let serial_secs = start.elapsed().as_secs_f64();
    let (ws, wu) = (service.current_schedule(), service.current_utility());
    let (bs, bu) = (baseline.current_schedule(), baseline.current_utility());
    if service.instance() != baseline.instance()
        || ws.map(|s| s.assignments().to_vec()) != bs.map(|s| s.assignments().to_vec())
        || wu.map(f64::to_bits) != bu.map(f64::to_bits)
    {
        return Err(ServiceError::failed(
            "windowed end state diverged from op-at-a-time ingestion of the same feed",
        ));
    }

    let rate = |secs: f64| if secs > 0.0 { total as f64 / secs } else { f64::INFINITY };
    println!(
        "\n# sustained: windowed {:.0} ops/sec ({total} ops -> {coalesced_total} after \
         coalescing, {flushes} flushes) vs op-at-a-time {:.0} ops/sec - x{:.2}",
        rate(flush_secs),
        rate(serial_secs),
        if flush_secs > 0.0 { serial_secs / flush_secs } else { f64::INFINITY },
    );
    println!(
        "# final: |E|={} |U|={} |S|={} utility={:.4} — end state bit-identical to \
         op-at-a-time{}",
        service.instance().num_events(),
        service.instance().num_users(),
        service.current_schedule().map_or(0, |s| s.len()),
        service.current_utility().unwrap_or(0.0),
        if verify { "; every window verified against INC recompute" } else { "" }
    );
    Ok(())
}

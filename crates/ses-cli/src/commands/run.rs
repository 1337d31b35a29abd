//! `ses run` — build one instance, run a lineup of schedulers, print a
//! comparison table (optionally with the bound-first gate and a per-phase
//! timing breakdown).
//!
//! A thin client of [`SesService`]: the lineup resolves through
//! [`SchedulerKind::resolve`] (no local name table) and every run reuses
//! the service's warm scratch pool. Results are bit-identical to direct
//! `run_configured` calls.

use crate::args::Args;
use crate::commands::{
    apply_constraints_flag, dataset_from_flags, input_instance_flag, storage_from_flags,
};
use ses_algorithms::{RunConfig, SchedulerKind, SesService};
use ses_core::error::ServiceError;
use ses_core::parallel::Threads;

/// Executes the `run` subcommand.
pub fn exec(args: &Args) -> Result<(), ServiceError> {
    let (dataset, users, events, intervals, seed) = dataset_from_flags(args)?;
    let (storage, levels) = storage_from_flags(args, dataset, users)?;
    let k = args.num_flag("k", 20usize)?;
    // Worker threads for the schedulers (0 = machine width, the default).
    // Results are bit-identical for every count — only wall time changes.
    let threads = Threads::new(args.num_flag("threads", 0usize)?);
    let gate = args.switch("gate");
    let profile = args.switch("profile");
    let cfg = RunConfig::threaded(threads).with_bound_gate(gate).with_profile(profile);

    let mut inst = match input_instance_flag(args)? {
        Some(inst) => inst,
        None => dataset.build_with(users, events, intervals, seed, Some(storage), levels),
    };
    // The header echoes the instance actually scheduled — with `--input`
    // its shape comes from the file, not the dataset flags.
    let (users, events, intervals) = (inst.num_users(), inst.num_events(), inst.num_intervals());
    let family = apply_constraints_flag(args, &mut inst, seed)?;
    eprintln!(
        "# dataset={} |U|={users} |E|={events} |T|={intervals} k={k} seed={seed} threads={threads}\
         {}{}{}",
        dataset.name(),
        if gate { " gate=on" } else { "" },
        if profile { " profile=on" } else { "" },
        match family {
            Some(f) => format!(" constraints={}({} rules)", f.name(), inst.constraints.len()),
            None => String::new(),
        },
    );
    if profile {
        eprintln!(
            "# storage={storage} levels={levels} heap={:.1} MiB (interest {:.1} MiB)",
            inst.heap_bytes() as f64 / (1024.0 * 1024.0),
            inst.event_interest.heap_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
    let lineup: Vec<SchedulerKind> = match args.opt_flag("algorithms") {
        None => SchedulerKind::paper_lineup().to_vec(),
        // Resolve eagerly so a typo fails (exit 2) before any run.
        Some(spec) => {
            spec.split(',').map(|s| SchedulerKind::resolve(s.trim())).collect::<Result<_, _>>()?
        }
    };
    // One service for the whole lineup: its shared scratch pool makes
    // repeat runs allocation-free.
    let mut service = SesService::new(inst).with_threads(threads);

    println!(
        "{:>8} {:>14} {:>10} {:>16} {:>14} {:>12} {:>10} {:>10}",
        "method", "utility", "|S|", "computations", "examined", "updates", "skips", "time"
    );
    for &kind in &lineup {
        let res = service.schedule_kind(kind, k, cfg);
        println!(
            "{:>8} {:>14.4} {:>10} {:>16} {:>14} {:>12} {:>10} {:>9.1}ms",
            res.algorithm,
            res.utility,
            res.schedule.len(),
            res.stats.user_ops,
            res.stats.assignments_examined,
            res.stats.score_updates,
            res.stats.bound_skips,
            res.elapsed.as_secs_f64() * 1e3,
        );
        if let Some(p) = res.profile {
            let total = res.elapsed.as_nanos().max(1) as f64;
            let ms = |ns: u64| ns as f64 / 1e6;
            let pct = |ns: u64| 100.0 * ns as f64 / total;
            let other = res.elapsed.as_nanos() as u64
                - (p.setup_ns + p.score_ns + p.apply_ns).min(res.elapsed.as_nanos() as u64);
            println!(
                "         profile: setup {:>8.2}ms ({:>4.1}%) | score {:>8.2}ms ({:>4.1}%, {} calls) \
                 | apply {:>8.2}ms ({:>4.1}%, {} calls) | other {:>8.2}ms",
                ms(p.setup_ns),
                pct(p.setup_ns),
                ms(p.score_ns),
                pct(p.score_ns),
                p.scores,
                ms(p.apply_ns),
                pct(p.apply_ns),
                p.applies,
                ms(other),
            );
        }
    }
    Ok(())
}

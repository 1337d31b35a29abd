//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale full|small]`
//!
//! Runs one workload, prints a human-readable report, then as the last
//! line of standard output one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when any output check failed or any
//! request failed, 2 on a usage error.

use perfbench::{Config, Scale, Workload};
use std::path::Path;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         [--scale full|small]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("session") {
        return match perfbench::session_child(&args[1..]) {
            Ok(out) => {
                print!("{out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench session: {e}");
                ExitCode::from(1)
            }
        };
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::FULL;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { return usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload '{value}'")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(n) => seed = Some(n),
                Err(_) => return usage(&format!("bad --seed '{value}'")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage(&format!("bad --seconds '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad --trace '{value}'")),
            },
            "--scale" => match Scale::parse(value) {
                Some(s) => scale = s,
                None => return usage(&format!("bad --scale '{value}'")),
            },
            _ => return usage(&format!("unknown flag '{flag}'")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        exe: match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => return usage(&format!("cannot locate this executable: {e}")),
        },
    };
    match perfbench::run(&cfg) {
        Ok(report) => {
            print!("{}", report.human());
            println!("{}", report.json_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

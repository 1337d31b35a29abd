//! The benchmark's own tests: every workload at small scale, untraced and
//! traced, with the same output checks as the full-scale run, plus a
//! check that `BENCHMARK.json` lists exactly the metrics the program
//! reports.

use perfbench::{Config, Report, Scale, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn small(workload: Workload, seed: u64, trace: bool) -> Report {
    let cfg = Config {
        workload,
        seed,
        seconds: 1.0,
        trace,
        scale: Scale::SMALL,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench"),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    };
    perfbench::run(&cfg).expect("run completes")
}

fn assert_clean(r: &Report) {
    assert!(r.correct(), "{}", r.human());
    assert!(r.attempted() > 0);
    for &(name, _, _) in r.table() {
        let v = r.value(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(v.is_finite(), "{name} = {v}");
    }
    let json = r.json_line();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("result line is JSON");
    assert!(matches!(parsed, serde_json::Value::Object(_)), "{json}");
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in Workload::ALL {
        let r = small(w, 7, false);
        assert_clean(&r);
        assert!(r.value("attendance").unwrap() > 0.0);
        assert_eq!(r.value("ok_share"), Some(1.0));
    }
}

#[test]
fn every_workload_reports_every_layer_traced() {
    for w in Workload::ALL {
        let r = small(w, 7, true);
        assert_clean(&r);
        for name in ["sched.alg_ms", "delta.apply_p50_ms", "stream.repair_p50_ms", "wal.append_us"]
        {
            assert!(r.value(name).unwrap() > 0.0, "{} {name}: {}", w.name(), r.human());
        }
    }
}

#[test]
fn a_seed_fixes_the_outcome_and_another_seed_also_passes() {
    for w in Workload::ALL {
        let a = small(w, 21, false);
        let b = small(w, 21, false);
        assert_eq!(
            a.value("attendance").unwrap().to_bits(),
            b.value("attendance").unwrap().to_bits(),
            "{}",
            w.name()
        );
        assert_clean(&small(w, 0xC0FFEE, false));
    }
}

#[test]
fn manifest_lists_the_reported_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let manifest: serde_json::Value = serde_json::from_str(&text).expect("manifest parses");
    let list = |key: &str| -> Vec<(String, String, String)> {
        let serde_json::Value::Object(top) = &manifest else { panic!("manifest is an object") };
        let Some((_, serde_json::Value::Array(items))) = top.iter().find(|(k, _)| k == key) else {
            panic!("{key} missing")
        };
        items
            .iter()
            .map(|item| {
                let serde_json::Value::Object(fields) = item else { panic!("{key} entry") };
                let get = |f: &str| match fields.iter().find(|(k, _)| k == f) {
                    Some((_, serde_json::Value::String(s))) => s.clone(),
                    _ => panic!("{key} entry without {f}"),
                };
                (get("name"), get("unit"), get("better"))
            })
            .collect()
    };
    let expect = |table: &[(&str, &str, perfbench::Better)]| -> Vec<(String, String, String)> {
        table.iter().map(|&(n, u, b)| (n.into(), u.into(), b.name().into())).collect()
    };
    assert_eq!(list("end_to_end"), expect(END_TO_END));
    assert_eq!(list("per_layer"), expect(PER_LAYER));
}

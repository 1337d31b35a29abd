//! Serialization round-trips: instances (the CLI `generate` path), schedule
//! results, and experiment reports all survive JSON without behavioural
//! drift.

use social_event_scheduling::algorithms::{Scheduler, SchedulerKind};
use social_event_scheduling::core::Instance;
use social_event_scheduling::datasets::Dataset;
use social_event_scheduling::experiments::{run_lineup, FigureReport, Metric};

/// An instance serialized and reloaded schedules identically — byte-level
/// model fidelity, including the sparse (Meetup) interest layout.
#[test]
fn instance_roundtrip_preserves_scheduling() {
    for dataset in [Dataset::Meetup, Dataset::Zip] {
        let inst = dataset.build(50, 20, 5, 0x5EDE);
        let json = serde_json::to_string(&inst).expect("serialize");
        let back: Instance = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(inst, back, "{}", dataset.name());
        assert!(back.validate().is_ok());

        for kind in [SchedulerKind::Alg, SchedulerKind::HorI] {
            let a = kind.run(&inst, 6);
            let b = kind.run(&back, 6);
            assert_eq!(a.schedule, b.schedule, "{} on {}", kind.name(), dataset.name());
            assert_eq!(a.stats, b.stats);
        }
    }
}

/// The compressed columnar layout round-trips through JSON without losing
/// a bit: the reloaded instance equals the original (dictionary, codes,
/// block metadata and cached sums included), keeps its storage kind, and
/// schedules identically to the dense original.
#[test]
fn compressed_instance_roundtrip() {
    use social_event_scheduling::core::model::StorageKind;

    let dense = Dataset::Zip.build(50, 20, 5, 0x5EDE);
    let mut inst = dense.clone();
    inst.event_interest = dense.event_interest.convert_to(StorageKind::Compressed);
    inst.competing_interest = dense.competing_interest.convert_to(StorageKind::Compressed);

    let json = serde_json::to_string(&inst).expect("serialize");
    let back: Instance = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(inst, back);
    assert_eq!(back.event_interest.storage_kind(), StorageKind::Compressed);
    assert!(back.validate().is_ok());

    for kind in [SchedulerKind::Alg, SchedulerKind::HorI] {
        let a = kind.run(&dense, 6);
        let b = kind.run(&back, 6);
        assert_eq!(a.schedule, b.schedule, "{}", kind.name());
        assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "{}", kind.name());
        assert_eq!(a.stats, b.stats);
    }
}

/// ScheduleResult serializes (the JSON the CLI can emit per run).
#[test]
fn schedule_result_roundtrip() {
    let inst = Dataset::Unf.build(40, 15, 4, 1);
    let res = SchedulerKind::Inc.run(&inst, 5);
    let json = serde_json::to_string(&res).unwrap();
    let back: social_event_scheduling::algorithms::ScheduleResult =
        serde_json::from_str(&json).unwrap();
    assert_eq!(back.algorithm, "INC");
    assert_eq!(back.schedule, res.schedule);
    assert_eq!(back.stats, res.stats);
    assert!((back.utility - res.utility).abs() < 1e-12);
}

/// FigureReport JSON and CSV exports agree on the cell values.
#[test]
fn report_exports_agree() {
    let inst = Dataset::Zip.build(40, 15, 4, 2);
    let records =
        run_lineup("figX", "Zip", "k", 5.0, &inst, 5, &[SchedulerKind::Alg, SchedulerKind::Hor]);
    let report = FigureReport {
        id: "figX".into(),
        title: "roundtrip".into(),
        metrics: vec![Metric::Utility],
        records,
    };
    let back: FigureReport = serde_json::from_str(&report.to_json()).unwrap();
    assert_eq!(back.records.len(), report.records.len());

    let csv = report.to_csv();
    for r in &report.records {
        let line = csv
            .lines()
            .find(|l| l.contains(&r.algorithm) && l.starts_with("figX"))
            .unwrap_or_else(|| panic!("CSV row for {}", r.algorithm));
        assert!(line.contains(&format!("{}", r.utility)), "utility mismatch in CSV");
    }
}

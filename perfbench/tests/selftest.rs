//! Self-tests of the benchmark, run in tiny-window mode:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::check::{load_reference, Checker};
use perfbench::layers::ServeFaults;
use perfbench::report::Report;
use perfbench::spans::Scope;
use perfbench::{run, workloads, Args, Ctx, WORKLOADS};
use serde::Deserialize;
use std::path::PathBuf;

#[derive(Deserialize)]
struct MetricDef {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct WorkloadDef {
    name: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<WorkloadDef>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn benchmark() -> Benchmark {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn work(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the test work dir");
    dir
}

fn tiny(workload: &str, extra: &[&str], dir: &std::path::Path) -> Args {
    let mut argv: Vec<String> = [
        "--workload",
        workload,
        "--tiny",
        "--seconds",
        "0.3",
        "--work",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    argv.push(dir.display().to_string());
    argv.extend(extra.iter().map(|s| s.to_string()));
    Args::parse(&argv).expect("valid arguments")
}

fn assert_metrics(report: &Report, defs: &[MetricDef], what: &str) {
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want: Vec<(&str, &str)> = defs
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    assert_eq!(got, want, "{what}: metric names and units");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{what}: {} is not finite", m.name);
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<String> = benchmark().workloads.into_iter().map(|w| w.name).collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark();
    for w in WORKLOADS {
        let dir = work(&format!("metrics-{w}"));
        let report = run(tiny(w, &[], &dir)).expect("tiny run");
        assert!(report.correct, "{w}: {:?}", report.notes);
        assert_metrics(&report, &bench.end_to_end, w);
        let traced = run(tiny(w, &["--trace", "1"], &dir)).expect("tiny traced run");
        assert!(traced.correct, "{w} traced: {:?}", traced.notes);
        assert_metrics(&traced, &bench.per_layer, &format!("{w} traced"));
        assert!(
            dir.join(format!("spans-{w}-seed0.jsonl")).exists(),
            "{w}: span file"
        );
    }
}

#[test]
fn corrupted_reference_raises_the_error_rate() {
    let dir = work("corrupt");
    let reference = dir.join("reference.json");
    let path = reference.display().to_string();
    let written = run(tiny(
        "serial_server",
        &["--reference", &path, "--write-reference"],
        &dir,
    ))
    .expect("writing the reference");
    assert!(written.correct);
    let clean = run(tiny("serial_server", &["--reference", &path], &dir)).expect("checked run");
    assert!(clean.correct && clean.failed == 0, "{:?}", clean.notes);

    let entries = load_reference(&reference).expect("reference parses");
    assert_eq!(entries.len(), 3, "one entry per organization");
    let text = std::fs::read_to_string(&reference).unwrap();
    let digest = &entries.values().next().unwrap().digest;
    std::fs::write(
        &reference,
        text.replacen(digest.as_str(), "0000000000000000", 1),
    )
    .unwrap();
    let broken = run(tiny("serial_server", &["--reference", &path], &dir)).expect("checked run");
    assert!(!broken.correct);
    assert!(broken.failed > 0 && broken.failed < broken.attempted);
    let ok = broken
        .metrics
        .iter()
        .find(|m| m.name == "success_ratio")
        .unwrap();
    assert!(ok.value < 1.0, "error rate must rise above 0");
}

fn serve_with(faults: &ServeFaults, name: &str) -> (Report, Checker) {
    let dir = work(name);
    let ctx = Ctx {
        args: tiny("serve_mixed", &[], &dir),
        dir: dir.clone(),
        checker: Checker::new(None),
        scope: Scope::default(),
    };
    let report = workloads::serve_mixed_with(&ctx, faults);
    (report, ctx.checker)
}

#[test]
fn malformed_requests_count_as_failures() {
    let faults = ServeFaults {
        bad_every: Some(7),
        ..ServeFaults::default()
    };
    let (_, checker) = serve_with(&faults, "bad-requests");
    assert!(checker.failed() > 0);
    assert!(
        checker.problems().iter().any(|p| p.contains("status 400")),
        "{:?}",
        checker.problems()
    );
}

#[test]
fn shed_requests_count_as_failures() {
    let faults = ServeFaults {
        max_inflight: 1,
        ..ServeFaults::default()
    };
    let (_, checker) = serve_with(&faults, "shed");
    assert!(checker.failed() > 0);
    assert!(
        checker.problems().iter().any(|p| p.contains("status 429")),
        "{:?}",
        checker.problems()
    );
}

//! Tests of the `icn obs diff` perf-regression gate, at both the library
//! level (`icn_obs::diff_reports`) and the CLI level (exit codes), using
//! the blessed scale-0.05 baseline under `tests/golden/` and a doctored
//! regression fixture derived from it.
//!
//! The fixtures are real reports: `bench_smoke005.json` is a recorded
//! `icn run --scale 0.05` and `bench_regression_fixture.json` is the same
//! report with stage3's wall tripled and the `shap.chunk_ns` histogram
//! shifted four octaves up — the two metric kinds the gate must catch.

use icn_repro::icn_obs::{diff_reports, BenchReport, BenchReportSet, DiffStatus, DiffThresholds};
use std::process::Command;

fn load(name: &str) -> BenchReport {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    BenchReport::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

#[test]
fn self_diff_of_the_blessed_baseline_passes() {
    let a = load("bench_smoke005.json");
    let report = diff_reports(&a, &a, &DiffThresholds::default());
    assert!(report.passed(), "self-diff failed:\n{}", report.render());
}

#[test]
fn doctored_regression_fixture_fails_the_gate() {
    let a = load("bench_smoke005.json");
    let b = load("bench_regression_fixture.json");
    let report = diff_reports(&a, &b, &DiffThresholds::default());
    assert!(report.failures() > 0, "regression fixture slipped through");
    // Both the wall regression and the histogram regression must be
    // caught independently.
    let failed: Vec<&str> = report
        .lines
        .iter()
        .filter(|l| l.status == DiffStatus::Fail)
        .map(|l| l.metric.as_str())
        .collect();
    assert!(
        failed.iter().any(|m| m.contains("stage3_surrogate")),
        "stage3 wall regression missed: {failed:?}"
    );
    assert!(
        failed.iter().any(|m| m.contains("shap.chunk_ns")),
        "shap.chunk_ns p99 regression missed: {failed:?}"
    );
}

#[test]
fn reversed_direction_is_a_speedup_and_passes() {
    // The gate is asymmetric by design: the doctored report as *baseline*
    // makes the real report look like a speedup, which never fails.
    let a = load("bench_regression_fixture.json");
    let b = load("bench_smoke005.json");
    let report = diff_reports(&a, &b, &DiffThresholds::default());
    assert!(report.passed(), "speedup flagged:\n{}", report.render());
}

#[test]
fn cli_exit_codes_match_the_gate() {
    let golden = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let run = |a: &str, b: &str| {
        Command::new(env!("CARGO_BIN_EXE_icn"))
            .args(["obs", "diff"])
            .arg(format!("{golden}/{a}"))
            .arg(format!("{golden}/{b}"))
            .output()
            .expect("spawn icn")
    };
    let ok = run("bench_smoke005.json", "bench_smoke005.json");
    assert!(
        ok.status.success(),
        "self-diff exited nonzero:\n{}",
        String::from_utf8_lossy(&ok.stdout)
    );
    let bad = run("bench_smoke005.json", "bench_regression_fixture.json");
    assert_eq!(
        bad.status.code(),
        Some(1),
        "regression diff must exit 1:\n{}",
        String::from_utf8_lossy(&bad.stdout)
    );
    let usage = Command::new(env!("CARGO_BIN_EXE_icn"))
        .args(["obs", "bogus"])
        .output()
        .expect("spawn icn");
    assert_eq!(usage.status.code(), Some(2), "unknown obs subcommand");
}

/// The `icn-obs/v3` memory fixtures: `bench_mem_smoke.json` is a recorded
/// metered `icn run --scale 0.05` (ICN_THREADS=1) and the regression
/// fixture is the same report with the allocator peak (and VmHWM)
/// doubled — everything else identical, so only the peak gate can fire.
#[test]
fn v3_memory_report_round_trips_and_self_diffs_clean() {
    let a = load("bench_mem_smoke.json");
    let mem = a
        .memory
        .as_ref()
        .expect("v3 golden carries a memory section");
    assert!(mem.peak_bytes > 0);
    assert!(!mem.spans.is_empty(), "span attribution missing");
    // Round trip through render + parse preserves the memory section.
    let text = a.to_json().to_pretty();
    let back = BenchReport::parse(&text).expect("re-parse rendered v3");
    assert_eq!(back.memory, a.memory);
    let report = diff_reports(&a, &a, &DiffThresholds::default());
    assert!(report.passed(), "v3 self-diff failed:\n{}", report.render());
}

#[test]
fn doctored_peak_fixture_fails_the_asymmetric_peak_gate() {
    let a = load("bench_mem_smoke.json");
    let b = load("bench_mem_regression_fixture.json");
    let report = diff_reports(&a, &b, &DiffThresholds::default());
    assert!(report.failures() > 0, "2x peak growth slipped through");
    assert!(
        report
            .lines
            .iter()
            .any(|l| l.metric == "mem:allocator_peak_bytes" && l.status == DiffStatus::Fail),
        "peak gate did not fire:\n{}",
        report.render()
    );
    // Asymmetric: the same pair reversed is a shrinkage and passes.
    let reversed = diff_reports(&b, &a, &DiffThresholds::default());
    assert!(
        reversed.passed(),
        "peak shrinkage flagged:\n{}",
        reversed.render()
    );
}

/// v2 -> v3 is graceful: a baseline without a memory section diffs
/// against a v3 candidate (and vice versa) as an informational line,
/// never a failure — old blessed baselines keep gating wall and
/// histograms unchanged.
#[test]
fn missing_memory_section_diffs_informationally() {
    let v2 = load("bench_smoke005.json");
    assert!(v2.memory.is_none(), "v2 golden grew a memory section");
    let v3 = load("bench_mem_smoke.json");
    let mut v3_stripped = v3.clone();
    v3_stripped.memory = None;
    // Identical walls, one side missing memory: informational, passing.
    for (a, b) in [(&v3_stripped, &v3), (&v3, &v3_stripped)] {
        let report = diff_reports(a, b, &DiffThresholds::default());
        assert!(
            report.passed(),
            "one-sided memory diff failed:\n{}",
            report.render()
        );
        assert!(
            report
                .lines
                .iter()
                .any(|l| l.metric == "mem:allocator_peak_bytes" && l.status == DiffStatus::Info),
            "missing-section info line absent:\n{}",
            report.render()
        );
    }
}

/// Child spans are attribution detail, not gated metrics: a baseline that
/// still carries a span the code no longer opens (the NN-chain's former
/// `stage2_cluster/agglomerate/matrix` square build) diffs clean against a
/// candidate without it, and the span never surfaces as a diff line.
#[test]
fn removed_child_span_never_gates() {
    let gone = "stage2_cluster/agglomerate/matrix";
    for name in ["bench_cluster_smoke.json", "bench_mem_smoke.json"] {
        let a = load(name);
        assert!(a.spans.contains_key(gone), "{name} lost its {gone} span");
        let mut b = a.clone();
        b.spans.remove(gone);
        if let Some(m) = b.memory.as_mut() {
            m.spans.remove(gone);
        }
        let report = diff_reports(&a, &b, &DiffThresholds::default());
        assert!(
            report.passed(),
            "{name}: removed child span failed the gate:\n{}",
            report.render()
        );
        assert!(
            report.lines.iter().all(|l| !l.metric.contains("matrix")),
            "{name}: child span surfaced as a diff line:\n{}",
            report.render()
        );
    }
}

/// The CLI peak gate end to end: default threshold (1.5x) rejects the
/// doctored 2x fixture with exit 1; `--max-peak-ratio 3` admits it.
#[test]
fn cli_max_peak_ratio_flag_gates_and_relaxes() {
    let golden = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_icn"))
            .args(["obs", "diff"])
            .arg(format!("{golden}/bench_mem_smoke.json"))
            .arg(format!("{golden}/bench_mem_regression_fixture.json"))
            .args(extra)
            .output()
            .expect("spawn icn")
    };
    let strict = run(&[]);
    assert_eq!(
        strict.status.code(),
        Some(1),
        "2x peak must fail the default gate:\n{}",
        String::from_utf8_lossy(&strict.stdout)
    );
    let relaxed = run(&["--max-peak-ratio", "3"]);
    assert!(
        relaxed.status.success(),
        "relaxed peak gate still failed:\n{}",
        String::from_utf8_lossy(&relaxed.stdout)
    );
}

/// `icn obs diff` pairs `icn-bench-set/1` files (from `--threads-sweep`)
/// by thread count: a legacy single baseline gates the matching member of
/// a sweep candidate, two sweeps diff pairwise, and files with no common
/// configuration fail loudly instead of silently passing.
#[test]
fn cli_diff_pairs_sweep_sets_by_thread_count() {
    let base = load("bench_smoke005.json");
    let at_threads = |threads: usize| {
        let mut r = base.clone();
        r.env.threads = threads;
        r
    };
    let dir = std::env::temp_dir().join("icn_obs_diff_sets");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, set: &BenchReportSet| {
        let path = dir.join(name);
        set.write_to_file(path.to_str().unwrap())
            .expect("write set");
        path
    };
    let sweep12 = write(
        "sweep12.json",
        &BenchReportSet {
            reports: vec![at_threads(1), at_threads(2)],
        },
    );
    let sweep2 = write(
        "sweep2.json",
        &BenchReportSet {
            reports: vec![at_threads(2)],
        },
    );
    let sweep8 = write(
        "sweep8.json",
        &BenchReportSet {
            reports: vec![at_threads(8), at_threads(16)],
        },
    );
    let golden = format!(
        "{}/tests/golden/bench_smoke005.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let run = |a: &std::path::Path, b: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_icn"))
            .args(["obs", "diff"])
            .arg(a)
            .arg(b)
            .output()
            .expect("spawn icn")
    };
    // Single baseline vs sweep candidate: its thread count picks the
    // matching member, and the self-identical walls pass.
    let ok = run(std::path::Path::new(&golden), &sweep12);
    assert!(
        ok.status.success(),
        "single-vs-set diff failed:\n{}{}",
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr)
    );
    // Sweep vs sweep: only the shared threads=2 configuration is
    // compared; the unmatched baseline member drops out.
    let pairwise = run(&sweep12, &sweep2);
    assert!(
        pairwise.status.success(),
        "set-vs-set diff failed:\n{}{}",
        String::from_utf8_lossy(&pairwise.stdout),
        String::from_utf8_lossy(&pairwise.stderr)
    );
    // Disjoint thread sets have nothing to compare — that is a gate
    // failure, not a silent pass.
    let disjoint = run(&sweep12, &sweep8);
    assert_eq!(
        disjoint.status.code(),
        Some(1),
        "disjoint sweeps must fail:\n{}",
        String::from_utf8_lossy(&disjoint.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

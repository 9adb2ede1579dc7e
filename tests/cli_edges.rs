//! Usage errors exit 2 with a message, never a panic (exit 101): a
//! non-positive or non-finite `--scale` on the `icn` CLI, a zero or
//! non-numeric `icn ingest --chunk`, an `icn ingest --resume` checkpoint
//! that cannot be read or parsed or whose dims differ from the feed's, an
//! `icn obs diff` input that cannot be read or parsed, and a
//! `bench_cluster --large-n` that leaves no more rows than clusters.
//! `icn obs diff` keeps exit 1 for a real regression.
//!
//! `bench_cluster` belongs to the `icn-bench` package, so it is launched
//! through `cargo run` in the same profile as this test; argument
//! checking happens before any work, so each case returns at once. The
//! wrong-dims resume case alone generates a (scale-0.05) feed first.

use icn_repro::prelude::Checkpoint;
use std::process::{Command, Output};

enum Bin {
    Icn,
    BenchCluster,
}

/// Path of a committed report fixture under `tests/golden/`.
fn golden(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn launch(bin: &Bin, args: &[&str]) -> Output {
    let mut cmd = match bin {
        Bin::Icn => Command::new(env!("CARGO_BIN_EXE_icn")),
        Bin::BenchCluster => {
            let mut c = Command::new(env!("CARGO"));
            c.current_dir(env!("CARGO_MANIFEST_DIR")).args([
                "run",
                "-q",
                "--offline",
                "-p",
                "icn-bench",
                "--bin",
                "bench_cluster",
            ]);
            if !cfg!(debug_assertions) {
                c.arg("--release");
            }
            c.arg("--");
            c
        }
    };
    cmd.args(args).output().expect("spawn")
}

#[test]
fn invalid_arguments_exit_2_with_a_message() {
    let k = icn_repro::prelude::StudyConfig::paper().k.to_string();
    let smoke = golden("bench_smoke005.json");
    let not_a_report = format!("{}/Cargo.toml", env!("CARGO_MANIFEST_DIR"));
    let missing = golden("no_such_report.json");
    // A real checkpoint of a scale-0.02 feed, resumed against scale 0.05.
    let dir = std::env::temp_dir().join("icn_cli_edges");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ck = dir.join("ck-0.02.json").display().to_string();
    let no_ck = dir.join("no_such_ck.json").display().to_string();
    let halt = [
        "ingest",
        "--days",
        "1",
        "--scale",
        "0.02",
        "--halt-after",
        "2",
        "--checkpoint",
        &ck,
    ];
    let out = launch(&Bin::Icn, &halt);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ck_dims = {
        let s = Checkpoint::read_file(std::path::Path::new(&ck))
            .expect("checkpoint")
            .schema;
        format!(
            "has dims {} antennas x {} services x {} hours",
            s.antennas, s.services, s.hours
        )
    };
    let wrong_dims = [
        "ingest",
        "--days",
        "1",
        "--scale",
        "0.05",
        "--resume",
        "--checkpoint",
        &ck,
    ];
    // The checkpoint is read before the feed is generated.
    let unreadable = ["ingest", "--resume", "--checkpoint", &no_ck];
    let unparsable = ["ingest", "--resume", "--checkpoint", &not_a_report];
    let cases: &[(Bin, &[&str], &str)] = &[
        (Bin::Icn, &wrong_dims, &ck_dims),
        (Bin::Icn, &unreadable, "cannot read checkpoint"),
        (Bin::Icn, &unparsable, "cannot parse checkpoint"),
        (Bin::Icn, &["run", "--scale", "0"], "--scale"),
        (Bin::Icn, &["run", "--scale", "-1"], "--scale"),
        (Bin::Icn, &["run", "--scale", "nan"], "--scale"),
        (Bin::Icn, &["run", "--scale", "inf"], "--scale"),
        (Bin::Icn, &["ingest", "--chunk", "0"], "--chunk"),
        (Bin::Icn, &["ingest", "--chunk", "abc"], "--chunk"),
        (
            Bin::Icn,
            &["obs", "diff", &smoke, &not_a_report],
            "cannot parse",
        ),
        (Bin::Icn, &["obs", "diff", &missing, &smoke], "cannot read"),
        (Bin::BenchCluster, &["--large-n", "0"], "usage:"),
        (Bin::BenchCluster, &["--large-n", &k], "usage:"),
    ];
    for (bin, args, needle) in cases {
        let out = launch(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2:\n{stderr}"
        );
        assert!(
            stderr.contains(needle),
            "{args:?}: message lacks {needle:?}:\n{stderr}"
        );
    }
}

#[test]
fn obs_diff_exits_1_only_on_a_regression() {
    let smoke = golden("bench_smoke005.json");
    let regressed = golden("bench_regression_fixture.json");
    let out = launch(&Bin::Icn, &["obs", "diff", &smoke, &regressed]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a regression must exit 1:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("perf gate FAILED"));
}

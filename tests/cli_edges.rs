//! Usage errors exit 2 with a message, never a panic (exit 101): a
//! non-positive or non-finite `--scale` on the `icn` CLI, and a
//! `bench_cluster --large-n` that leaves no more rows than clusters.
//!
//! `bench_cluster` belongs to the `icn-bench` package, so it is launched
//! through `cargo run` in the same profile as this test; argument
//! checking happens before any work, so each case returns at once.

use std::process::{Command, Output};

enum Bin {
    Icn,
    BenchCluster,
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
    let cases: &[(Bin, &[&str], &str)] = &[
        (Bin::Icn, &["run", "--scale", "0"], "--scale"),
        (Bin::Icn, &["run", "--scale", "-1"], "--scale"),
        (Bin::Icn, &["run", "--scale", "nan"], "--scale"),
        (Bin::Icn, &["run", "--scale", "inf"], "--scale"),
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

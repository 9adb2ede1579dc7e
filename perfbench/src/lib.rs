//! Workloads of the repository benchmark.
//!
//! `perfbench/run.py` builds this package and starts one fresh process per
//! measured iteration, reading the single JSON line that process prints.
//! Two binaries share this library:
//!
//! * `perfbench` — the end-to-end binary: system allocator, observability
//!   off. Its timed region calls the program's own entry points.
//! * `perfbench_traced` — the traced pass: [`icn_obs::CountingAlloc`] as
//!   the global allocator, the global registry on, and a benchmark-side
//!   span around every call into a layer. It also writes an `icn-obs`
//!   report and a Chrome trace.
//!
//! ```sh
//! perfbench <study_paper|hourly_figures|ingest_faulty_feed> --seed N \
//!     [--scale 1.0] [--setup-reps 3]
//! ```
//!
//! Inputs are generated from `--seed` alone; the program under test only
//! ever sees the generated dataset or record feed.

mod hourly;
mod ingest;
mod measure;
mod study;

use icn_obs::Json;
use measure::Layers;
use std::time::Instant;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["study_paper", "hourly_figures", "ingest_faulty_feed"];

/// Where the traced pass writes, relative to the repository root (the
/// working directory `run.py` gives every iteration).
const TRACE_DIR: &str = "perfbench/out";

/// Parsed command line of one workload process.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: drives the synthetic campaign and the fault injector.
    pub seed: u64,
    /// Population scale (1.0 = the paper's 4,762 indoor antennas).
    pub scale: f64,
    /// How many times the inputs are generated; each is timed as set-up.
    pub setup_reps: usize,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let workload = argv.first().ok_or("missing workload name")?.clone();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}`"));
        }
        let mut args = Args {
            workload,
            seed: 0,
            scale: 1.0,
            setup_reps: 1,
        };
        let mut seed = None;
        let mut rest = argv[1..].iter();
        while let Some(flag) = rest.next() {
            let value = rest
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
            let bad = || format!("bad value `{value}` for `{flag}`");
            match flag.as_str() {
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--scale" => args.scale = value.parse().map_err(|_| bad())?,
                "--setup-reps" => args.setup_reps = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        args.seed = seed.ok_or("missing --seed")?;
        if !(args.scale > 0.0 && args.scale <= 4.0) {
            return Err(format!("--scale {} outside (0, 4]", args.scale));
        }
        if args.setup_reps == 0 || args.setup_reps > 20 {
            return Err(format!("--setup-reps {} outside 1..=20", args.setup_reps));
        }
        Ok(args)
    }
}

/// Entry point of both binaries: runs one iteration of the workload named
/// on the command line and prints its result as one JSON line. Exits 2 on
/// a bad command line and 1 when the workload fails to run.
pub fn main(traced: bool) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if traced {
        let reg = icn_obs::global();
        reg.reset();
        reg.enable();
    }
    let mut layers = Layers::new(traced);
    let outcome = match args.workload.as_str() {
        "study_paper" => study::run(&args, &mut layers),
        "hourly_figures" => hourly::run(&args, &mut layers),
        _ => ingest::run(&args, &mut layers),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let peak_rss_mb = icn_obs::vm_hwm_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0));
    let layer_json = if traced {
        let reg = icn_obs::global();
        let snapshot = reg.snapshot();
        reg.disable();
        match write_trace(&args, &snapshot) {
            Ok(()) => layers.to_json(&snapshot),
            Err(e) => {
                eprintln!("perfbench: cannot write the trace: {e}");
                std::process::exit(1);
            }
        }
    } else {
        Json::Obj(Vec::new())
    };
    let line = Json::obj(vec![
        ("workload", Json::str(args.workload.as_str())),
        ("traced", Json::Bool(traced)),
        ("stamp", stamp(&args)),
        ("setup_s", nums(&outcome.setup_s)),
        ("run_s", Json::num(outcome.run_s)),
        ("cpu_s", Json::num(outcome.cpu_s)),
        ("peak_rss_mb", Json::num(peak_rss_mb)),
        ("records", Json::num(outcome.records as f64)),
        (
            "fingerprint",
            Json::str(format!("{:016x}", outcome.fingerprint)),
        ),
        (
            "checks_attempted",
            Json::num(outcome.checks.attempted as f64),
        ),
        (
            "check_failures",
            Json::Arr(outcome.checks.failures.iter().map(Json::str).collect()),
        ),
        ("attributed_s", Json::num(outcome.attributed_s)),
        ("layers", layer_json),
        (
            "counts",
            Json::obj(
                outcome
                    .counts
                    .iter()
                    .map(|(k, v)| (*k, Json::num(*v)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.to_compact());
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::num(x)).collect())
}

/// Writes the traced pass's `icn-obs` report and Chrome trace under
/// [`TRACE_DIR`], named by workload, seed and thread count.
fn write_trace(args: &Args, snapshot: &icn_obs::Snapshot) -> std::io::Result<()> {
    std::fs::create_dir_all(TRACE_DIR)?;
    let threads = icn_stats::par::thread_count();
    let stem = format!("{TRACE_DIR}/{}-s{}-t{threads}", args.workload, args.seed);
    let run_id = format!("perfbench-{}", args.workload);
    icn_obs::BenchReport::build(snapshot, &run_id, args.scale)
        .write_to_file(&format!("{stem}.obs.json"))?;
    icn_obs::write_chrome_trace(snapshot, &format!("{stem}.trace.json"))
}

/// The machine and configuration a result was measured on. `run.py`
/// refuses to compare results whose stamps differ (the git commit aside,
/// which is what a comparison is for).
fn stamp(args: &Args) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::obj(vec![
        ("available_parallelism", Json::num(parallelism as f64)),
        ("cpu_model", Json::str(cpu_model)),
        ("build_profile", Json::str(profile)),
        (
            "git_commit",
            Json::str(icn_obs::report::detect_git_commit().unwrap_or_else(|| "unknown".into())),
        ),
        (
            "icn_threads",
            Json::num(icn_stats::par::thread_count() as f64),
        ),
        ("scale", Json::num(args.scale)),
        ("seed", Json::num(args.seed as f64)),
        ("feed_days", Json::num(ingest::FEED_DAYS as f64)),
    ])
}

/// Runs `make` `reps` times, timing each call as set-up, and keeps the
/// last result (earlier ones are dropped before the next is built).
pub(crate) fn timed_setup<T>(reps: usize, mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(make());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("setup_reps >= 1"), times)
}

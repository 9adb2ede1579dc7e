//! Stage-2 clustering bench: sweeps the exact Ward path over population
//! scales and worker-thread counts, then exercises the sampled scalable
//! path on a synthetic large-N fixture and records exact-vs-sampled
//! agreement (ARI) at small scales.
//!
//! ```text
//! cargo run --release --bin bench_cluster -- \
//!     --scales 0.05,0.25,1.0 --threads 1,max --metrics-out BENCH_pr6.json
//! ```
//!
//! Only stages 1–2 of the pipeline run (the surrogate/SHAP stages are not
//! relevant here), so a full sweep completes in seconds. Every
//! configuration is measured `--repeat` times (default 3) after one
//! unmeasured warm-up, and the fastest repeat wins. The exported report
//! is the best snapshot of the **final** exact configuration (largest
//! scale, highest thread count — `stage2_cluster` is directly comparable
//! to `BENCH_pr5.json`) overlaid with the large-N sampled run and the
//! agreement gauges:
//!
//! * `stage2_cluster` span tree — the exact path at the last scale.
//! * `stage2_sampled_large_n` span tree — sampled Ward on the synthetic
//!   fixture (`--large-n`, default 50_000 rows).
//! * gauges `cluster.sampled_ari_scale005` / `..._scale02` — sampled vs
//!   exact Ward label agreement at scales 0.05 / 0.2.
//! * gauges `cluster.large_n_rows`, `cluster.large_n_sample`,
//!   `cluster.large_n_condensed_bytes`, `cluster.budget_bytes`.

use icn_cluster::{
    adjusted_rand_index, agglomerate_condensed, sampled_ward, sweep_k, Condensed, Dendrogram,
    Linkage, SampledWardConfig,
};
use icn_core::{filter_dead_rows, rsca, StudyConfig};
use icn_obs::BenchReport;
use icn_stats::{Matrix, Rng};
use icn_synth::{Dataset, SynthConfig};

// Count allocations so `--metrics-out` reports carry the `icn-obs/v3`
// memory section (inert single-branch overhead while metering is off).
#[global_allocator]
static ALLOC: icn_obs::CountingAlloc = icn_obs::CountingAlloc::system();

struct ClusterBenchOpts {
    scales: Vec<f64>,
    threads: Vec<Option<usize>>, // None = hardware max
    seed: u64,
    large_n: usize,
    budget_mb: usize,
    repeat: usize,
    metrics_out: Option<String>,
}

fn parse_args() -> ClusterBenchOpts {
    let args: Vec<String> = std::env::args().collect();
    let mut opts = ClusterBenchOpts {
        scales: vec![0.05, 0.25, 1.0],
        threads: vec![Some(1), None],
        seed: SynthConfig::default().seed,
        large_n: 50_000,
        budget_mb: StudyConfig::paper().cluster_budget_mb,
        repeat: 3,
        metrics_out: None,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scales" => {
                if let Some(v) = args.get(i + 1) {
                    opts.scales = v.split(',').filter_map(|s| s.parse().ok()).collect();
                }
                i += 2;
            }
            "--threads" => {
                if let Some(v) = args.get(i + 1) {
                    opts.threads = v
                        .split(',')
                        .map(|s| {
                            if s == "max" {
                                None
                            } else {
                                Some(s.parse().unwrap_or(1).max(1))
                            }
                        })
                        .collect();
                }
                i += 2;
            }
            "--seed" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    opts.seed = v;
                }
                i += 2;
            }
            "--large-n" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    opts.large_n = v;
                }
                i += 2;
            }
            "--budget-mb" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    opts.budget_mb = v;
                }
                i += 2;
            }
            "--repeat" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    opts.repeat = v.max(1);
                }
                i += 2;
            }
            "--metrics-out" => {
                opts.metrics_out = args.get(i + 1).cloned();
                i += 2;
            }
            _ => i += 1,
        }
    }
    let k = StudyConfig::paper().k;
    if opts.scales.is_empty() {
        usage_and_exit("no scales given");
    }
    if opts.threads.is_empty() {
        usage_and_exit("no thread counts given");
    }
    if opts.large_n <= k {
        usage_and_exit(&format!(
            "--large-n must exceed the cluster count k={k} (got {})",
            opts.large_n
        ));
    }
    opts
}

fn usage_and_exit(problem: &str) -> ! {
    eprintln!(
        "bench_cluster: {problem}\n\
         usage: bench_cluster [--scales S,..] [--threads T|max,..] [--seed N] \
         [--large-n N] [--budget-mb MB] [--repeat R] [--metrics-out PATH]"
    );
    std::process::exit(2);
}

/// Stage 1 + RSCA for a scaled synthetic population.
fn rsca_at(scale: f64, seed: u64) -> Matrix {
    let ds = Dataset::generate(SynthConfig::paper().with_scale(scale).with_seed(seed));
    let (t_live, _) = filter_dead_rows(&ds.indoor_totals);
    rsca(&t_live)
}

/// The exact stage-2 path, mirroring the pipeline's span layout.
fn run_exact_stage2(rsca_m: &Matrix, config: &StudyConfig) -> Vec<usize> {
    let mut span = icn_obs::Span::enter("stage2_cluster");
    span.attr("antennas", rsca_m.rows() as u64);
    let cond = Condensed::from_rows(rsca_m, Linkage::Ward.base_metric());
    let history = agglomerate_condensed(&cond, Linkage::Ward);
    let dendrogram = Dendrogram::from_history(&history);
    let _k_sweep = sweep_k(
        &history,
        &cond.sqrt_values(),
        config.k_sweep_lo..=config.k_sweep_hi.min(history.n - 1),
    );
    let labels = history.cut(config.k);
    let _ = dendrogram.consolidation(config.k, config.k_coarse);
    labels
}

/// A synthetic large-N fixture: `k` well-separated archetype centroids in
/// the RSCA-like unit simplex geometry, Gaussian spread, seeded.
fn large_fixture(n: usize, dims: usize, k: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from(seed);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..dims).map(|_| rng.uniform(0.0, 1.0)).collect())
        .collect();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = &centers[i % k];
            c.iter().map(|&v| rng.normal(v, 0.08)).collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

fn span_ms(report: &BenchReport, path: &str) -> f64 {
    report
        .spans
        .get(path)
        .map_or(0.0, |&(_, wall)| wall.as_secs_f64() * 1e3)
}

/// Overlays `extra` (the agreement + large-N phase) onto `base` (the best
/// exact-sweep repeat) so one self-contained report can be exported. Both
/// snapshots come from their own registry sessions; name collisions (the
/// condensed-build gauges both phases set) resolve to the later phase,
/// matching the last-write-wins the registry itself would have applied
/// had the phases shared a session.
fn overlay(base: &mut icn_obs::Snapshot, extra: icn_obs::Snapshot) {
    base.counters.extend(extra.counters);
    base.gauges.extend(extra.gauges);
    base.histograms.extend(extra.histograms);
    base.spans.extend(extra.spans);
}

fn main() {
    let opts = parse_args();
    let obs = icn_obs::global();
    obs.enable();
    let config = StudyConfig::paper();

    // Unmeasured warm-up at the largest scale: the first big run in a
    // process pays for faulting in the O(N²) working set (fresh kernel
    // pages); afterwards the allocator reuses the arena. Without this the
    // first measured configuration absorbs several seconds of one-off
    // page-fault cost that no steady-state run ever sees.
    {
        let warm = rsca_at(*opts.scales.last().unwrap(), opts.seed);
        obs.disable();
        let _ = run_exact_stage2(&warm, &config);
        obs.enable();
        obs.reset();
    }

    println!("=== bench cluster: exact stage-2 scale x thread sweep ===");
    println!(
        "{:>7} {:>7} {:>9} {:>11} {:>12} {:>13} {:>11}",
        "scale", "threads", "antennas", "stage2_ms", "condensed_ms", "agglomerate_ms", "sweep_ms"
    );

    let last_scale = *opts.scales.last().unwrap();
    // Thread count is the outer dimension so the final configuration is
    // the largest scale at the highest thread count. Every configuration
    // runs `--repeat` times and the fastest repeat is what gets printed
    // and (for the final configuration) exported — the box this runs on
    // shares cores, and best-of-R is the standard way to measure the code
    // rather than the neighbours.
    let mut best_final: Option<icn_obs::Snapshot> = None;
    for (ti, &threads) in opts.threads.iter().enumerate() {
        match threads {
            Some(t) => std::env::set_var("ICN_THREADS", t.to_string()),
            None => std::env::remove_var("ICN_THREADS"),
        }
        for (si, &scale) in opts.scales.iter().enumerate() {
            let rsca_m = rsca_at(scale, opts.seed);
            let n = rsca_m.rows();
            let mut best: Option<(f64, icn_obs::Snapshot)> = None;
            for _ in 0..opts.repeat {
                obs.reset();
                let _labels = run_exact_stage2(&rsca_m, &config);
                let snap = obs.snapshot();
                let wall = snap
                    .spans
                    .get("stage2_cluster")
                    .map_or(f64::INFINITY, |&(_, w)| w.as_secs_f64());
                if best.as_ref().is_none_or(|(bw, _)| wall < *bw) {
                    best = Some((wall, snap));
                }
            }
            let (_, snap) = best.unwrap();
            let report = BenchReport::build(&snap, "bench_cluster", scale);
            println!(
                "{:>7.2} {:>7} {:>9} {:>11.1} {:>12.1} {:>13.1} {:>11.1}",
                scale,
                report.env.threads,
                n,
                span_ms(&report, "stage2_cluster"),
                span_ms(&report, "stage2_cluster/condensed"),
                span_ms(&report, "stage2_cluster/agglomerate"),
                span_ms(&report, "stage2_cluster")
                    - span_ms(&report, "stage2_cluster/condensed")
                    - span_ms(&report, "stage2_cluster/agglomerate"),
            );
            if ti == opts.threads.len() - 1 && si == opts.scales.len() - 1 {
                best_final = Some(snap);
            }
        }
    }
    std::env::remove_var("ICN_THREADS");
    obs.reset();

    // Exact-vs-sampled agreement at small scales (the satellite ARI gate).
    // One parent span keeps the phase's inner spans (generate, condensed,
    // agglomerate, sampled_ward) out of the report's top-level stages.
    println!("=== sampled vs exact Ward agreement ===");
    let agreement_span = icn_obs::Span::enter("sampled_agreement");
    for (tag, scale) in [("scale005", 0.05), ("scale02", 0.2)] {
        let rsca_m = rsca_at(scale, opts.seed);
        let n = rsca_m.rows();
        let exact = agglomerate_condensed(
            &Condensed::from_rows(&rsca_m, Linkage::Ward.base_metric()),
            Linkage::Ward,
        )
        .cut(config.k);
        let sw = sampled_ward(
            &rsca_m,
            config.k,
            &SampledWardConfig {
                sample: n * 3 / 5,
                seed: opts.seed,
                refine_iters: 2,
            },
        );
        let ari = adjusted_rand_index(&exact, &sw.labels);
        obs.set_gauge(&format!("cluster.sampled_ari_{tag}"), ari);
        println!(
            "scale {scale:>5}: n={n:>5} sample={} ARI={ari:.4}",
            sw.sample.len()
        );
    }
    drop(agreement_span);

    // Sampled Ward on the synthetic large-N fixture, within the budget.
    let budget_bytes = opts.budget_mb * 1024 * 1024;
    let fixture = large_fixture(opts.large_n, 73, config.k, opts.seed);
    let sample = icn_cluster::max_sample_for_budget(budget_bytes).min(opts.large_n);
    let t0 = std::time::Instant::now();
    let sw = {
        let mut span = icn_obs::Span::enter("stage2_sampled_large_n");
        span.attr("rows", opts.large_n as u64);
        sampled_ward(
            &fixture,
            config.k,
            &SampledWardConfig {
                sample,
                seed: opts.seed,
                refine_iters: 2,
            },
        )
    };
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    obs.set_gauge("cluster.large_n_rows", opts.large_n as f64);
    obs.set_gauge("cluster.large_n_sample", sw.sample.len() as f64);
    icn_obs::gauge_bytes("cluster.large_n_condensed_bytes", sw.condensed_bytes);
    icn_obs::gauge_bytes("cluster.budget_bytes", budget_bytes);
    println!(
        "=== sampled large-N: n={} sample={} condensed={:.1} MB (budget {} MB) wall={wall:.1} ms ===",
        opts.large_n,
        sw.sample.len(),
        sw.condensed_bytes as f64 / (1024.0 * 1024.0),
        opts.budget_mb,
    );
    assert!(
        sw.condensed_bytes <= budget_bytes,
        "sampled path exceeded its memory budget"
    );

    if let Some(path) = &opts.metrics_out {
        // Export = fastest repeat of the final exact configuration, with
        // the agreement gauges and the sampled large-N phase overlaid.
        let mut snap = best_final.expect("sweep ran at least one configuration");
        overlay(&mut snap, obs.snapshot());
        let report = BenchReport::build(&snap, "bench_cluster", last_scale);
        match report.write_to_file(path) {
            Ok(()) => eprintln!("metrics written to {path}"),
            Err(e) => {
                eprintln!("failed to write metrics to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

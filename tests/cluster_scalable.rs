//! The scalable stage-2 path, end to end: sampled-Ward agreement with
//! exact Ward at paper sub-scales (the ARI gate from the scaling study),
//! the memory-budget regression guaranteeing the sampled path never
//! materializes the full condensed matrix, and the `cluster_path = sampled`
//! configuration flowing through the whole pipeline.

use icn_repro::icn_cluster::agglomerate_condensed;
use icn_repro::icn_obs;
use icn_repro::prelude::*;

mod common;

/// `sampled_path_never_materializes_full_condensed` reads the process-global
/// registry while it is enabled, and every `Condensed` built by another
/// test in this binary writes the gauge it checks; the tests that build
/// one serialize on this lock.
static REGISTRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn registry_guard() -> std::sync::MutexGuard<'static, ()> {
    // A failed test must not fail the others through poisoning.
    REGISTRY_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// RSCA features of the paper-configured synthetic campaign at `scale`.
fn rsca_at(scale: f64) -> Matrix {
    let ds = Dataset::generate(SynthConfig::paper().with_scale(scale));
    let (t_live, _) = filter_dead_rows(&ds.indoor_totals);
    rsca(&t_live)
}

/// The agreement gate: a 60% seeded sample with one refinement pass must
/// reproduce exact Ward's partition at ARI ≥ 0.9 on the paper geometry.
/// These are the same scales and hyper-parameters the `bench_cluster`
/// sweep records into `BENCH_pr6.json`, pinned here so a regression in
/// either the sampler or the refiner fails tests rather than just
/// drifting a benchmark artefact.
#[test]
fn sampled_ward_agrees_with_exact_at_paper_subscales() {
    let _registry = registry_guard();
    let config = StudyConfig::paper();
    for scale in [0.05, 0.2] {
        let rsca_m = rsca_at(scale);
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
                seed: SynthConfig::default().seed,
                refine_iters: 2,
            },
        );
        let ari = adjusted_rand_index(&exact, &sw.labels);
        assert!(
            ari >= 0.9,
            "scale {scale}: sampled vs exact Ward ARI = {ari:.4} < 0.9 (n = {n})"
        );
    }
}

/// A blobby large-N fixture that would need far more than the test budget
/// if clustered exactly.
fn large_fixture(n: usize, dims: usize, k: usize) -> Matrix {
    let mut rng = Rng::seed_from(0xB16_F1C);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..dims).map(|_| rng.uniform(0.0, 1.0)).collect())
        .collect();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = &centers[i % k];
            c.iter().map(|&v| rng.normal(v, 0.05)).collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// Satellite regression: the sampled path must stay inside its memory
/// budget — the `cluster.condensed_bytes` gauge (set by every condensed
/// build) proves the only pairwise matrix ever materialized was the
/// sample's, never the full population's. Owns the process-global
/// registry for its whole body, per the suite's env-test discipline.
#[test]
fn sampled_path_never_materializes_full_condensed() {
    let _registry = registry_guard();
    let n = 6000;
    let budget_bytes: usize = 4 * 1024 * 1024; // 4 MB — exact needs ~412 MB
    assert!(exact_memory_bytes(n) > budget_bytes);
    assert_eq!(
        ClusterPath::Auto.resolve(n, budget_bytes),
        ClusterPath::Sampled
    );

    let fixture = large_fixture(n, 24, 6);
    let sample = max_sample_for_budget(budget_bytes).min(n);
    assert!(sample < n, "budget must force a strict sample");

    let obs = icn_obs::global();
    obs.reset();
    obs.enable();
    let sw = sampled_ward(
        &fixture,
        6,
        &SampledWardConfig {
            sample,
            seed: 42,
            refine_iters: 1,
        },
    );
    let snap = obs.snapshot();
    obs.disable();
    obs.reset();

    let full_bytes = n * (n - 1) / 2 * std::mem::size_of::<f64>();
    let gauge = snap.gauges["cluster.condensed_bytes"] as usize;
    assert_eq!(gauge, sw.condensed_bytes, "gauge disagrees with result");
    assert!(
        gauge <= budget_bytes,
        "condensed allocation {gauge} B exceeds the {budget_bytes} B budget"
    );
    assert!(
        gauge < full_bytes / 50,
        "condensed allocation {gauge} B is suspiciously close to the full \
         matrix's {full_bytes} B — did the sampled path degrade to exact?"
    );
    // The assignment stage must have metered the non-sample rows.
    assert!(snap.histograms.contains_key("cluster.assign_ns"));
    assert_eq!(sw.labels.len(), n);
    assert!(sw.labels.iter().all(|&l| l < 6));
}

/// `cluster_path = sampled` must flow through the full study: every stage
/// downstream of clustering (profiles, surrogate, SHAP, crosstabs) runs
/// off the extended labels without knowing a sample was involved.
#[test]
fn pipeline_runs_end_to_end_on_sampled_path() {
    let _registry = registry_guard();
    let ds = common::dataset();
    let config = StudyConfig {
        cluster_path: ClusterPath::Sampled,
        cluster_budget_mb: 1,
        ..StudyConfig::fast()
    };
    let st = IcnStudy::run(&ds, config);
    let n = st.rsca.rows();
    assert_eq!(st.labels.len(), n);
    assert_eq!(st.labels_coarse.len(), n);
    assert!(st.labels.iter().all(|&l| l < st.config.k));
    assert!(st.labels_coarse.iter().all(|&l| l < st.config.k_coarse));
    // Coarse labels are exactly the fine labels pushed through the
    // consolidation map, sample or no sample.
    for (f, c) in st.labels.iter().zip(&st.labels_coarse) {
        assert_eq!(st.consolidation[*f], *c);
    }
    // The sample hierarchy is smaller than the population (strict sample).
    assert!(
        st.history.n < n,
        "budget of 1 MB must force a strict sample"
    );
    assert_eq!(st.profiles.len(), st.config.k);
    assert!(st.surrogate_accuracy > 0.5);
}

/// Auto path selection is a pure function of N and the budget: paper-scale
/// populations stay exact (goldens untouched), hyper-scale populations go
/// sampled.
#[test]
fn auto_path_selection_respects_budget() {
    let mb = 1024 * 1024;
    let default_budget = StudyConfig::default().cluster_budget_mb * mb;
    // The paper's full population (~4.7k antennas) fits the default budget.
    assert_eq!(
        ClusterPath::Auto.resolve(4762, default_budget),
        ClusterPath::Exact
    );
    // 50k antennas would need ~30 GB: sampled.
    assert_eq!(
        ClusterPath::Auto.resolve(50_000, default_budget),
        ClusterPath::Sampled
    );
    // Explicit paths are never overridden.
    assert_eq!(
        ClusterPath::Exact.resolve(50_000, default_budget),
        ClusterPath::Exact
    );
    assert_eq!(
        ClusterPath::Sampled.resolve(10, default_budget),
        ClusterPath::Sampled
    );
    // Budget math round-trips: the largest sample the budget admits would
    // itself fit the budget, and one antenna more would not.
    let s = max_sample_for_budget(default_budget);
    assert!(exact_memory_bytes(s) <= default_budget);
    assert!(exact_memory_bytes(s + 1) > default_budget);
}

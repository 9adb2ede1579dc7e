//! Integration ablation B5: the three SHAP estimators must agree.
//!
//! TreeSHAP (the paper's choice) is validated against brute-force exact
//! Shapley in unit tests; here we close the triangle at the integration
//! level — KernelSHAP run against the *pipeline's* surrogate forest must
//! approximate TreeSHAP, and local accuracy must hold on real study data.
//! The batch kernel is pinned bit for bit against the single-sample
//! kernel on study forests, at every lane-block tail and thread count.

use icn_repro::prelude::*;

mod common;
use icn_forest::{SoaForest, TreeConfig};
use icn_shap::{
    forest_base_value, forest_shap_batch_soa, forest_shap_soa, kernel_shap, KernelShapConfig,
};

fn small_study() -> (Dataset, IcnStudy) {
    let dataset = common::dataset_at(0.04);
    let study = common::study_for(&dataset);
    (dataset, study)
}

#[test]
fn treeshap_local_accuracy_on_study_data() {
    let (_, study) = small_study();
    let base = forest_base_value(&study.surrogate);
    for i in (0..study.rsca.rows()).step_by(37) {
        let x = study.rsca.row(i);
        let phi = forest_shap(&study.surrogate, x);
        let pred = study.surrogate.predict_proba(x);
        for c in 0..study.surrogate.n_classes {
            let total: f64 = phi.iter().map(|p| p[c]).sum::<f64>() + base[c];
            assert!(
                (total - pred[c]).abs() < 1e-9,
                "row {i} class {c}: {total} vs {}",
                pred[c]
            );
        }
    }
}

#[test]
fn treeshap_and_kernelshap_agree_on_top_features() {
    // Kernel SHAP with background imputation estimates the *interventional*
    // Shapley values while TreeSHAP (path-dependent) conditions on the
    // tree's training distribution — they differ in general but must agree
    // on the dominant features and their signs for well-separated data.
    let (_, study) = small_study();
    let class = 0usize;
    // Pick a member of class 0.
    let idx = study
        .labels
        .iter()
        .position(|&l| l == class)
        .expect("member");
    let x = study.rsca.row(idx);

    let tree_phi = forest_shap(&study.surrogate, x);
    let tree_class: Vec<f64> = tree_phi.iter().map(|p| p[class]).collect();

    let surrogate = &study.surrogate;
    let model = move |v: &[f64]| surrogate.predict_proba(v)[class];
    let (kern_phi, _) = kernel_shap(
        &model,
        x,
        &study.rsca,
        &KernelShapConfig {
            n_samples: 3000,
            max_background: 24,
            seed: 9,
        },
    );

    // Rank agreement on the top-5 TreeSHAP features.
    let top5 = icn_stats::rank::top_k(&tree_class.iter().map(|v| v.abs()).collect::<Vec<_>>(), 5);
    let mut sign_matches = 0usize;
    let mut kernel_ranks_high = 0usize;
    let kern_abs: Vec<f64> = kern_phi.iter().map(|v| v.abs()).collect();
    let kern_order = icn_stats::rank::argsort_desc(&kern_abs);
    for &f in &top5 {
        if tree_class[f].signum() == kern_phi[f].signum() || kern_phi[f].abs() < 1e-4 {
            sign_matches += 1;
        }
        let kern_rank = kern_order.iter().position(|&g| g == f).unwrap();
        if kern_rank < 20 {
            kernel_ranks_high += 1;
        }
    }
    assert!(sign_matches >= 4, "sign agreement {sign_matches}/5");
    assert!(
        kernel_ranks_high >= 3,
        "kernel ranks top TreeSHAP features highly: {kernel_ranks_high}/5"
    );
}

#[test]
fn shap_importance_correlates_with_gini_importance() {
    // Second-opinion check: services dominating SHAP for any cluster must
    // overlap with forest Gini importance.
    let (_, study) = small_study();
    let gini = icn_forest::gini_importance(&study.surrogate);
    let gini_top: std::collections::HashSet<usize> =
        icn_stats::rank::top_k(&gini, 15).into_iter().collect();
    let mut hits = 0usize;
    let mut total = 0usize;
    for ex in &study.explanations {
        for inf in ex.top(3) {
            total += 1;
            if gini_top.contains(&inf.feature) {
                hits += 1;
            }
        }
    }
    let frac = hits as f64 / total as f64;
    assert!(frac > 0.4, "SHAP/Gini top-feature overlap {frac}");
}

#[test]
fn shap_values_are_finite_and_bounded() {
    // Probability outputs bound Shapley values to [-1, 1].
    let (_, study) = small_study();
    for i in (0..study.rsca.rows()).step_by(53) {
        let phi = forest_shap(&study.surrogate, study.rsca.row(i));
        for row in &phi {
            for &v in row {
                assert!(v.is_finite());
                assert!((-1.0..=1.0).contains(&v), "phi {v}");
            }
        }
    }
}

/// Asserts `forest_shap_batch_soa` on the first `n` rows of `x` equals the
/// per-sample `reference` bit for bit.
fn assert_batch_bitwise(
    soa: &SoaForest,
    x: &Matrix,
    n: usize,
    reference: &[Vec<Vec<f64>>],
    tag: &str,
) {
    let rows: Vec<Vec<f64>> = (0..n).map(|i| x.row(i).to_vec()).collect();
    let batch = forest_shap_batch_soa(soa, &Matrix::from_rows(&rows));
    for (c, m) in batch.iter().enumerate() {
        assert_eq!(m.shape(), (n, soa.n_features));
        for (i, phi) in reference[..n].iter().enumerate() {
            for f in 0..soa.n_features {
                assert_eq!(
                    m.get(i, f).to_bits(),
                    phi[f][c].to_bits(),
                    "{tag}: batch of {n}, sample {i}, class {c}, feature {f}"
                );
            }
        }
    }
}

#[test]
fn batch_matches_per_sample_bitwise_at_every_tail_and_thread_count() {
    let _guard = common::EnvGuard::capture();
    let dataset = Dataset::generate(SynthConfig::paper().with_scale(0.05));
    let study = IcnStudy::run(&dataset, StudyConfig::fast());
    let x = &study.rsca;
    // Coarse leaves hold several classes, so leaves add several terms.
    let coarse = RandomForest::fit(
        &TrainSet::new(x.clone(), study.labels.clone()),
        &ForestConfig {
            n_trees: 12,
            tree: TreeConfig {
                min_samples_leaf: 6,
                ..ForestConfig::default().tree
            },
            ..ForestConfig::default()
        },
    );
    for (tag, forest) in [("study", &study.surrogate), ("coarse", &coarse)] {
        let soa = SoaForest::from_forest(forest);
        if tag == "coarse" {
            let mixed = soa
                .trees
                .iter()
                .flat_map(|t| {
                    (0..t.num_nodes())
                        .filter(|&i| t.is_leaf(i))
                        .map(move |i| t.nz_len[i])
                })
                .filter(|&k| k > 1)
                .count();
            assert!(mixed > 0, "coarse forest has no multi-class leaf");
        }
        let reference: Vec<Vec<Vec<f64>>> = (0..x.rows())
            .map(|i| forest_shap_soa(&soa, x.row(i)))
            .collect();
        for threads in ["1", "2", "8"] {
            std::env::set_var("ICN_THREADS", threads);
            let tag = format!("{tag} forest at ICN_THREADS={threads}");
            // Every tail-block size, plus the whole study (several chunks).
            for n in (1..=17).chain([x.rows()]) {
                assert_batch_bitwise(&soa, x, n, &reference, &tag);
            }
        }
    }
}

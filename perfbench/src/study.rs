//! `study_paper`: the paper's headline computation, stages 1–6.
//!
//! End-to-end runs call [`IcnStudy::try_run`] with the Figure 2 k-sweep and
//! the stage-6 forecast on. The traced pass re-drives the same sequence of
//! layer calls as `icn_core::pipeline` from this file, one span per call;
//! the traced and untraced outputs must hash alike.

use crate::measure::{Checks, Fingerprint, Layers, Outcome, Timer};
use crate::{timed_setup, Args};
use icn_cluster::{
    adjusted_rand_index, agglomerate_condensed, normalized_mutual_info, purity, sweep_k,
    ClusterPath, Condensed, Dendrogram, Linkage, MergeHistory,
};
use icn_core::{
    classify_outdoor_with, cluster_profiles, filter_dead_rows, rsca, EnvCrosstab, IcnStudy,
    StudyConfig,
};
use icn_forecast::{ForecastConfig, ForecastReport, Model};
use icn_forest::{RandomForest, SoaForest, TrainSet};
use icn_shap::ClassExplanation;
use icn_synth::{Dataset, StudyCalendar, SynthConfig};
use icn_testkit::{oracle_ets, oracle_seasonal_naive};

/// The outputs of one study run that the checks and fingerprint read.
struct StudyOut {
    live_rows: Vec<usize>,
    history: MergeHistory,
    labels: Vec<usize>,
    surrogate_accuracy: f64,
    surrogate_oob: Option<f64>,
    explanations: Vec<ClassExplanation>,
    outdoor_predicted: Vec<usize>,
    trees: usize,
    forest_nodes: usize,
    forecast: ForecastReport,
}

/// The generated inputs of a batch workload: the paper campaign at
/// `args.scale` under `args.seed`.
pub(crate) fn dataset(args: &Args, layers: &mut Layers) -> (Dataset, Vec<f64>) {
    timed_setup(args.setup_reps, || {
        layers.call("synth.generate", || {
            Dataset::generate(
                SynthConfig::paper()
                    .with_seed(args.seed)
                    .with_scale(args.scale),
            )
        })
    })
}

pub(crate) fn run(args: &Args, layers: &mut Layers) -> Result<Outcome, String> {
    let (ds, setup_s) = dataset(args, layers);
    let cfg = StudyConfig {
        run_k_sweep: true,
        run_forecast: true,
        ..StudyConfig::paper()
    };
    let timer = Timer::start();
    let out = if layers.traced() {
        redrive(&ds, &cfg, layers)
    } else {
        let st = IcnStudy::try_run(&ds, cfg).map_err(|e| e.to_string())?;
        StudyOut {
            live_rows: st.live_rows,
            history: st.history,
            labels: st.labels,
            surrogate_accuracy: st.surrogate_accuracy,
            surrogate_oob: st.surrogate_oob,
            explanations: st.explanations,
            outdoor_predicted: st.outdoor.predicted,
            forest_nodes: forest_nodes(&st.surrogate),
            trees: st.surrogate.trees.len(),
            forecast: st
                .forecast
                .ok_or("run_forecast set but no forecast report")?,
        }
    };
    let (run_s, cpu_s) = timer.stop();
    let attributed_s = layers.attributed();

    let mut checks = Checks::default();
    forecast_checks(&mut checks, &out.forecast, &cfg.forecast_config());
    checks.check("surrogate_accuracy", out.surrogate_accuracy > 0.97, || {
        format!("{} <= 0.97", out.surrogate_accuracy)
    });
    let oob = out.surrogate_oob.unwrap_or(0.0);
    checks.check("surrogate_oob", oob > 0.8, || format!("{oob} <= 0.8"));
    recovery_checks(&mut checks, &ds, &out.live_rows, &out.labels);

    let mut fp = Fingerprint::default();
    fp.usizes(&out.labels);
    hash_history(&mut fp, &out.history);
    for ex in &out.explanations {
        fp.word(ex.class as u64);
        fp.f64(ex.influences.iter().map(|f| f.mean_abs_shap).sum());
        fp.f64(ex.influences.iter().map(|f| f.mean_shap_on_members).sum());
        for f in &ex.influences {
            fp.word(f.feature as u64);
        }
    }
    fp.usizes(&out.outdoor_predicted);
    hash_forecast(&mut fp, &out.forecast);

    let n = out.labels.len();
    Ok(Outcome {
        setup_s,
        run_s,
        cpu_s,
        records: ds.indoor_totals.as_slice().len() as u64,
        fingerprint: fp.finish(),
        checks,
        attributed_s,
        counts: vec![
            ("shap.samples", n as f64),
            ("forest.trees", out.trees as f64),
            ("forest.nodes", out.forest_nodes as f64),
            ("cluster.matrix_bytes", condensed_bytes(n)),
            ("forecast.antenna_hours", antenna_hours(n)),
        ],
    })
}

/// The pipeline's stages 1–6 as separate layer calls, in
/// `icn_core::pipeline`'s order, on its exact clustering path.
fn redrive(ds: &Dataset, cfg: &StudyConfig, layers: &mut Layers) -> StudyOut {
    let (t_live, live_rows, rsca_m) = layers.call("core.rsca", || {
        let (t_live, live_rows) = filter_dead_rows(&ds.indoor_totals);
        let rsca_m = rsca(&t_live);
        (t_live, live_rows, rsca_m)
    });
    let budget = cfg.cluster_budget_mb.saturating_mul(1024 * 1024);
    assert!(
        matches!(
            cfg.cluster_path.resolve(rsca_m.rows(), budget),
            ClusterPath::Exact | ClusterPath::Auto
        ),
        "the benchmark re-drives the exact stage-2 path only"
    );
    let cond = layers.call("cluster.condensed", || {
        Condensed::from_rows(&rsca_m, Linkage::Ward.base_metric())
    });
    let history = layers.call("cluster.agglomerate", || {
        agglomerate_condensed(&cond, Linkage::Ward)
    });
    let dendrogram = layers.call("cluster.dendrogram", || Dendrogram::from_history(&history));
    let _k_sweep = layers.call("cluster.sweep_k", || {
        let cond_eucl = cond.sqrt_values();
        sweep_k(
            &history,
            &cond_eucl,
            cfg.k_sweep_lo..=cfg.k_sweep_hi.min(history.n - 1),
        )
    });
    drop(cond);
    let (labels, _coarse, _consolidation) = layers.call("cluster.cut", || {
        (
            history.cut(cfg.k),
            history.cut(cfg.k_coarse),
            dendrogram.consolidation(cfg.k, cfg.k_coarse),
        )
    });
    let _profiles = layers.call("core.profiles", || {
        cluster_profiles(&rsca_m, &labels, cfg.k)
    });
    let (ts, surrogate) = layers.call("forest.fit", || {
        let ts = TrainSet::new(rsca_m.clone(), labels.clone());
        let forest = RandomForest::fit(&ts, &cfg.forest_config());
        (ts, forest)
    });
    let frozen = layers.call("forest.freeze", || SoaForest::from_forest(&surrogate));
    let preds = layers.call("forest.predict", || frozen.predict_batch(&ts.x));
    let hits = preds.iter().zip(&ts.y).filter(|(p, y)| p == y).count();
    let shap = layers.call("shap.batch", || {
        icn_shap::forest_shap_batch_soa(&frozen, &rsca_m)
    });
    let explanations = layers.call("shap.explain", || {
        shap.iter()
            .enumerate()
            .map(|(c, s)| icn_shap::explain_class(s, &rsca_m, &labels, c))
            .collect::<Vec<_>>()
    });
    drop(shap);
    let _crosstab = layers.call("core.crosstab", || {
        let live: Vec<icn_synth::Antenna> =
            live_rows.iter().map(|&i| ds.antennas[i].clone()).collect();
        EnvCrosstab::build(&live, &labels, cfg.k)
    });
    let outdoor = layers.call("core.outdoor", || {
        classify_outdoor_with(&ds.outdoor_totals, &t_live, &frozen)
    });
    let forecast = forecast_stage(ds, &t_live, &live_rows, &labels, cfg, layers);
    StudyOut {
        live_rows,
        history,
        labels,
        surrogate_accuracy: hits as f64 / ts.len() as f64,
        surrogate_oob: surrogate.oob_accuracy,
        explanations,
        outdoor_predicted: outdoor.predicted,
        trees: surrogate.trees.len(),
        forest_nodes: forest_nodes(&surrogate),
        forecast,
    }
}

/// Stage 6 as `icn_core::pipeline` runs it: per-cluster hourly series over
/// the temporal window, then the forecast models and backtest.
pub(crate) fn forecast_stage(
    ds: &Dataset,
    t_live: &icn_stats::Matrix,
    live_rows: &[usize],
    labels: &[usize],
    cfg: &StudyConfig,
    layers: &mut Layers,
) -> ForecastReport {
    let window = StudyCalendar::temporal_window();
    let series = layers.call("forecast.series", || {
        let live: Vec<icn_synth::Antenna> =
            live_rows.iter().map(|&i| ds.antennas[i].clone()).collect();
        let rows: Vec<&[f64]> = (0..t_live.rows()).map(|i| t_live.row(i)).collect();
        icn_forecast::study_cluster_series(
            &live,
            &rows,
            labels,
            cfg.k,
            &ds.services,
            StudyCalendar::paper_period().num_days(),
            &window,
            ds.root_rng(),
        )
    });
    layers.call("forecast.models", || {
        icn_forecast::forecast_series(&series, &window, &cfg.forecast_config())
    })
}

fn forest_nodes(forest: &RandomForest) -> usize {
    forest.trees.iter().map(|t| t.nodes.len()).sum()
}

/// How far the mean backtest MAE of ETS or of the forest may exceed the
/// seasonal-naive baseline's.
///
/// Both models beat naive on the mean over clusters for most campaigns
/// (ETS/naive about 0.92), but the ordering is not an invariant of correct
/// output: one event cluster whose fixture falls in the backtest window can
/// tip the unweighted mean (campaign seed 942511185: ETS 1.160 and forest
/// 1.173 against naive 1.146, cluster 7 alone at 3.16 and 3.49 against
/// 1.95). A broken model misses by several times the baseline's error.
const MAX_MAE_RATIO: f64 = 1.25;

/// Stage-6 checks. Exact: on every cluster with members the seasonal-naive
/// and ETS forecasts equal `icn-testkit`'s reference implementations run on
/// the same robust fitting series (the temporal window's three weeks make
/// every such cluster forecastable), and the primary forecast is the
/// configured model's. Backtest: the mean MAE of ETS and of the forest
/// stays within [`MAX_MAE_RATIO`] of seasonal naive.
pub(crate) fn forecast_checks(checks: &mut Checks, report: &ForecastReport, cfg: &ForecastConfig) {
    let (mut naive_off, mut ets_off, mut primary_off) = (Vec::new(), Vec::new(), Vec::new());
    for c in report.clusters.iter().filter(|c| c.n_antennas > 0) {
        // The series the models were fit on: detector-flagged hours
        // imputed with the detection template, as `forecast_series` does.
        let mut fit = c.series.clone();
        if !c.anomalies.template.is_empty() {
            for &t in &c.anomalies.flagged {
                fit[t] = c.anomalies.template[t % cfg.detector.period];
            }
        }
        if c.naive != oracle_seasonal_naive(&fit, cfg.ets.period, cfg.horizon) {
            naive_off.push(c.cluster);
        }
        let ets = oracle_ets(&fit, &cfg.ets, cfg.horizon);
        let close = c.ets.len() == ets.len()
            && c.ets
                .iter()
                .zip(&ets)
                .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0));
        if !close {
            ets_off.push(c.cluster);
        }
        let primary = match cfg.model {
            Model::SeasonalNaive => &c.naive,
            Model::Ets => &c.ets,
            Model::Forest => &c.forest,
        };
        if &c.forecast != primary || c.forecast.iter().any(|v| !v.is_finite()) {
            primary_off.push(c.cluster);
        }
    }
    checks.check(
        "forecast_naive_matches_oracle",
        naive_off.is_empty(),
        || format!("clusters {naive_off:?} differ from the closed form"),
    );
    checks.check("forecast_ets_matches_oracle", ets_off.is_empty(), || {
        format!("clusters {ets_off:?} differ from the hand-walked recurrences")
    });
    checks.check("forecast_is_primary_model", primary_off.is_empty(), || {
        format!(
            "clusters {primary_off:?}: forecast is not the finite {:?} one",
            cfg.model
        )
    });
    let mean = report.mean_backtest();
    checks.check(
        "backtest_ets_near_naive",
        mean.ets.mae <= MAX_MAE_RATIO * mean.naive.mae,
        || format!("ets MAE {} vs naive {}", mean.ets.mae, mean.naive.mae),
    );
    checks.check(
        "backtest_forest_near_naive",
        mean.forest.mae <= MAX_MAE_RATIO * mean.naive.mae,
        || format!("forest MAE {} vs naive {}", mean.forest.mae, mean.naive.mae),
    );
}

/// Planted-archetype recovery, with the bounds `tests/pipeline_recovery.rs`
/// pins: ARI and NMI above 0.8, purity above 0.85.
///
/// That test also pins a one-to-one map from the nine clusters to the nine
/// archetypes at its fixture campaign. The map is not an invariant of
/// correct output: on some campaigns exact Ward at k = 9 splits a large
/// archetype and merges two small event ones (seed 391566396: GeneralUse
/// in two clusters of 418 and 354, ProvincialStadium and ParisArena in one
/// of 104 + 132, at ARI 0.935), so it is not checked here.
fn recovery_checks(checks: &mut Checks, ds: &Dataset, live_rows: &[usize], labels: &[usize]) {
    let planted_all = ds.planted_labels();
    let planted: Vec<usize> = live_rows.iter().map(|&i| planted_all[i]).collect();
    let ari = adjusted_rand_index(labels, &planted);
    checks.check("archetype_recovery_ari", ari > 0.8, || {
        format!("ARI {ari} <= 0.8")
    });
    let nmi = normalized_mutual_info(labels, &planted);
    checks.check("archetype_recovery_nmi", nmi > 0.8, || {
        format!("NMI {nmi} <= 0.8")
    });
    let pur = purity(labels, &planted);
    checks.check("archetype_recovery_purity", pur > 0.85, || {
        format!("purity {pur} <= 0.85")
    });
}

pub(crate) fn hash_history(fp: &mut Fingerprint, history: &MergeHistory) {
    fp.word(history.merges.len() as u64);
    for m in &history.merges {
        fp.word(m.a as u64);
        fp.word(m.b as u64);
        fp.word(m.size as u64);
        fp.f64(m.height);
    }
}

pub(crate) fn hash_forecast(fp: &mut Fingerprint, report: &ForecastReport) {
    for c in &report.clusters {
        fp.f64s(&c.forecast);
        fp.f64(c.backtest.ets.mae);
        fp.f64(c.backtest.forest.mae);
        fp.f64(c.backtest.naive.mae);
    }
}

/// Bytes of one condensed N×N distance matrix (computed from N, not
/// measured).
pub(crate) fn condensed_bytes(n: usize) -> f64 {
    (n * n.saturating_sub(1) / 2 * std::mem::size_of::<f64>()) as f64
}

/// Antenna-hours of stage-6 series synthesis over the temporal window.
pub(crate) fn antenna_hours(n: usize) -> f64 {
    (n * StudyCalendar::temporal_window().num_hours()) as f64
}

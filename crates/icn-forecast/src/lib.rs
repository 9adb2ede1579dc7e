//! # icn-forecast — busy-hour forecasting & anomaly detection
//!
//! The temporal layer (`icn-core::temporal`, Section 6 of the paper) only
//! *describes* per-cluster demand; this crate makes it *predict*, in the
//! spirit of "Forecasting Busy-Hour Downlink Traffic in Cellular Networks"
//! (arXiv:2207.01373): per-cluster hourly series are forecast with three
//! models of increasing ambition and scored by rolling-origin backtest,
//! and an unsupervised detector flags the hours that depart from the
//! cluster's seasonal template.
//!
//! * [`series`] — raw (un-normalised) cluster median series, plus the
//!   signal-free control re-synthesis.
//! * [`models`] — seasonal-naive, additive Holt–Winters ETS, and a forest
//!   regressor reusing the `icn-forest` classifier via quantile binning.
//! * [`backtest`] — rolling-origin MAE/sMAPE harness; ETS and the forest
//!   must beat the naive baseline (gated in `tests/forecast_signals.rs`).
//! * [`detect`] — hour-of-week template + relative residuals + rolling
//!   robust z-scores. Against `icn_synth::signals` ground truth it must
//!   recover the planted Jan 19 strike and event bursts at F1 ≥ 0.9,
//!   and flag nothing on the signal-free control.
//!
//! Everything is deterministic and bit-identical at any `ICN_THREADS`:
//! all parallelism is order-preserving `par::map_indexed` — over
//! member-series synthesis, per-tree forest fitting, the per-cluster
//! model/detector work in [`forecast_series`], and the per-(origin ×
//! model) refits inside [`backtest_masked`] (whose error accumulation
//! stays serial in origin order, so scores never depend on the thread
//! count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backtest;
pub mod detect;
pub mod models;
pub mod series;

pub use backtest::{
    backtest, backtest_masked, mae, smape, BacktestConfig, BacktestScores, ModelScore,
};
pub use detect::{
    detect, robust_template, score_quantile, seasonal_template, Anomalies, DetectorConfig,
    RollingRobust, DIP_DAY_MAX,
};
pub use models::{
    ets_forecast, forest_forecast, seasonal_naive_forecast, EtsParams, ForestParams, Model, PERIOD,
};
pub use series::{cluster_series, cluster_series_signal_free, study_cluster_series, ClusterSeries};

use icn_synth::{StudyCalendar, Weekday};

/// Forecast-run configuration: the primary model and every sub-config.
#[derive(Clone, Copy, Debug)]
pub struct ForecastConfig {
    /// Hours to forecast past the window's end.
    pub horizon: usize,
    /// Model whose forecast is the primary `forecast` output (all three
    /// are always backtested).
    pub model: Model,
    /// ETS smoothing parameters.
    pub ets: EtsParams,
    /// Forest-regressor parameters.
    pub forest: ForestParams,
    /// Anomaly-detector parameters.
    pub detector: DetectorConfig,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        ForecastConfig {
            horizon: 24,
            model: Model::Ets,
            ets: EtsParams::default(),
            forest: ForestParams::default(),
            detector: DetectorConfig::default(),
        }
    }
}

/// Everything the subsystem produces for one cluster.
#[derive(Clone, Debug)]
pub struct ClusterForecast {
    /// Cluster id.
    pub cluster: usize,
    /// Member antennas behind the median series.
    pub n_antennas: usize,
    /// The observed series the models ran on.
    pub series: Vec<f64>,
    /// Primary-model forecast (`horizon` hours past the window).
    pub forecast: Vec<f64>,
    /// Seasonal-naive forecast (baseline, always computed).
    pub naive: Vec<f64>,
    /// ETS forecast.
    pub ets: Vec<f64>,
    /// Forest-regressor forecast.
    pub forest: Vec<f64>,
    /// Rolling-origin backtest scores (zeroed when the series is too
    /// short to split).
    pub backtest: BacktestScores,
    /// Anomaly-detection result.
    pub anomalies: Anomalies,
    /// Busiest forecast hour-of-day (argmax over the first forecast day).
    pub busy_hour: usize,
}

/// The full forecast stage output.
#[derive(Clone, Debug)]
pub struct ForecastReport {
    /// Per-cluster results, indexed by cluster id.
    pub clusters: Vec<ClusterForecast>,
    /// Horizon used.
    pub horizon: usize,
    /// Primary model used.
    pub model: Model,
}

impl ForecastReport {
    /// Mean backtest scores across forecastable clusters.
    pub fn mean_backtest(&self) -> BacktestScores {
        let scored: Vec<&BacktestScores> = self
            .clusters
            .iter()
            .filter(|c| c.backtest.naive.mae > 0.0)
            .map(|c| &c.backtest)
            .collect();
        if scored.is_empty() {
            return BacktestScores::default();
        }
        let k = scored.len() as f64;
        let mean = |f: fn(&BacktestScores) -> ModelScore| ModelScore {
            mae: scored.iter().map(|s| f(s).mae).sum::<f64>() / k,
            smape: scored.iter().map(|s| f(s).smape).sum::<f64>() / k,
        };
        BacktestScores {
            naive: mean(|s| s.naive),
            ets: mean(|s| s.ets),
            forest: mean(|s| s.forest),
        }
    }

    /// Total flagged hours across clusters.
    pub fn total_anomalous_hours(&self) -> usize {
        self.clusters
            .iter()
            .map(|c| c.anomalies.flagged.len())
            .sum()
    }
}

/// Day-of-week index (0 = Monday … 6 = Sunday).
pub fn dow_index(wd: Weekday) -> usize {
    match wd {
        Weekday::Mon => 0,
        Weekday::Tue => 1,
        Weekday::Wed => 2,
        Weekday::Thu => 3,
        Weekday::Fri => 4,
        Weekday::Sat => 5,
        Weekday::Sun => 6,
    }
}

/// Runs models + backtest + detector over pre-built cluster series.
///
/// Instrumented under `forecast.*` when the global `icn-obs` registry is
/// enabled (child spans per phase — `detect`, `fit_naive`, `fit_ets`,
/// `fit_forest`, `backtest` — per-cluster latency histogram, summary
/// counters/gauges) — the stage-6 pipeline span wraps this call.
pub fn forecast_series(
    all: &[ClusterSeries],
    window: &StudyCalendar,
    cfg: &ForecastConfig,
) -> ForecastReport {
    let obs = icn_obs::global();
    let start_dow = dow_index(window.start().weekday());
    // Clusters are independent: detector + three model fits + backtest per
    // cluster run as one parallel job each (order-preserving map, so the
    // report is bit-identical at any `ICN_THREADS`); the backtest itself
    // fans its (origin × model) refits out further.
    let clusters: Vec<ClusterForecast> = icn_stats::par::map_indexed(all.len(), |ci| {
        let cs = &all[ci];
        {
            let t0 = std::time::Instant::now();
            let n = cs.values.len();
            let forecastable = n >= 2 * cfg.ets.period && n >= PERIOD + cfg.forest.bins;
            // Per-cluster forest seed: decorrelated but deterministic.
            let forest = ForestParams {
                seed: cfg.forest.seed ^ ((cs.cluster as u64) << 32),
                ..cfg.forest
            };
            let anomalies = {
                let _span = icn_obs::Span::enter("detect");
                detect(&cs.values, &cfg.detector)
            };
            // Robust fitting series: detector-flagged hours are imputed
            // with the detection baseline (the event-free hour-of-week
            // level) so a strike day or a fixture night cannot drag the
            // smoothing state or the forest's lag features — classic
            // robust Holt–Winters outlier handling. The detector itself
            // always sees the raw series, and the backtest below scores
            // against the raw series too (flagged hours excluded).
            let fit = if anomalies.flagged.is_empty() || anomalies.template.is_empty() {
                cs.values.clone()
            } else {
                let mut fit = cs.values.clone();
                for &t in &anomalies.flagged {
                    fit[t] = anomalies.template[t % cfg.detector.period];
                }
                fit
            };
            let (naive, ets, forest_fc) = if forecastable {
                let naive = {
                    let _span = icn_obs::Span::enter("fit_naive");
                    seasonal_naive_forecast(&fit, cfg.ets.period, cfg.horizon)
                };
                let ets = {
                    let _span = icn_obs::Span::enter("fit_ets");
                    ets_forecast(&fit, &cfg.ets, cfg.horizon)
                };
                let forest_fc = {
                    let _span = icn_obs::Span::enter("fit_forest");
                    forest_forecast(&fit, &forest, start_dow, cfg.horizon)
                };
                (naive, ets, forest_fc)
            } else {
                (Vec::new(), Vec::new(), Vec::new())
            };
            let scores = match BacktestConfig::standard(n) {
                Some(bt) if forecastable => {
                    let _span = icn_obs::Span::enter("backtest");
                    backtest_masked(
                        &fit,
                        &cs.values,
                        &anomalies.flagged,
                        &bt,
                        &cfg.ets,
                        &forest,
                        start_dow,
                    )
                }
                _ => BacktestScores::default(),
            };
            let primary = match cfg.model {
                Model::SeasonalNaive => &naive,
                Model::Ets => &ets,
                Model::Forest => &forest_fc,
            };
            let busy_hour = primary
                .iter()
                .take(24)
                .enumerate()
                .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite forecast"))
                .map(|(h, _)| h)
                .unwrap_or(0);
            if obs.is_enabled() {
                obs.record_duration("forecast.cluster_ns", t0.elapsed());
            }
            ClusterForecast {
                cluster: cs.cluster,
                n_antennas: cs.n_antennas,
                series: cs.values.clone(),
                forecast: primary.clone(),
                naive,
                ets,
                forest: forest_fc,
                backtest: scores,
                anomalies,
                busy_hour,
            }
        }
    });
    let report = ForecastReport {
        clusters,
        horizon: cfg.horizon,
        model: cfg.model,
    };
    if obs.is_enabled() {
        obs.add_counter("forecast.clusters", report.clusters.len() as u64);
        obs.add_counter(
            "forecast.anomalous_hours",
            report.total_anomalous_hours() as u64,
        );
        obs.add_counter("forecast.horizon", report.horizon as u64);
        let mean = report.mean_backtest();
        obs.set_gauge("forecast.mae_naive", mean.naive.mae);
        obs.set_gauge("forecast.mae_ets", mean.ets.mae);
        obs.set_gauge("forecast.mae_forest", mean.forest.mae);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_stats::Rng;

    fn synthetic_cluster(cluster: usize, seed: u64) -> ClusterSeries {
        let mut rng = Rng::seed_from(seed);
        let values: Vec<f64> = (0..504)
            .map(|t| {
                let how = t % 168;
                let clean = 40.0 + (how as f64 * 0.17).sin() * 15.0;
                clean * (1.0 + 0.10 * rng.gaussian())
            })
            .collect();
        ClusterSeries {
            cluster,
            n_antennas: 10,
            values,
        }
    }

    #[test]
    fn forecast_series_end_to_end() {
        let window = StudyCalendar::temporal_window();
        let all = vec![synthetic_cluster(0, 1), synthetic_cluster(1, 2)];
        let cfg = ForecastConfig::default();
        let r = forecast_series(&all, &window, &cfg);
        assert_eq!(r.clusters.len(), 2);
        for c in &r.clusters {
            assert_eq!(c.forecast.len(), 24);
            assert_eq!(c.forecast, c.ets);
            assert!(c.busy_hour < 24);
            assert!(c.backtest.naive.mae > 0.0);
        }
        let mean = r.mean_backtest();
        assert!(mean.ets.mae < mean.naive.mae);
    }

    #[test]
    fn short_series_degrade_gracefully() {
        let window = StudyCalendar::custom(icn_synth::Date::new(2023, 1, 9), 2);
        let all = vec![ClusterSeries {
            cluster: 0,
            n_antennas: 3,
            values: vec![1.0; 48],
        }];
        let r = forecast_series(&all, &window, &ForecastConfig::default());
        assert!(r.clusters[0].forecast.is_empty());
        assert_eq!(r.clusters[0].backtest, BacktestScores::default());
    }

    #[test]
    fn dow_index_is_monday_based() {
        assert_eq!(dow_index(Weekday::Mon), 0);
        assert_eq!(dow_index(Weekday::Sun), 6);
        // The temporal window starts Wednesday 4 Jan 2023.
        let w = StudyCalendar::temporal_window();
        assert_eq!(dow_index(w.start().weekday()), 2);
    }
}

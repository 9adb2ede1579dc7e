//! `hourly_figures`: the paper's hourly views without the surrogate.
//!
//! RSCA, exact Ward with the Figure 2 k-sweep, the cut at k = 9 and the
//! environment crosstab; then the Figure 10 `cluster_heatmap` of every
//! cluster and the nine Figure 11 `service_heatmap` panels; then stage 6
//! (`study_cluster_series` + `forecast_series`). Hourly series synthesis
//! does most of the work. The same layer calls run with tracing off (the
//! end-to-end run) and on (the traced pass).

use crate::measure::{Checks, Fingerprint, Layers, Outcome, Timer};
use crate::study::{
    self, antenna_hours, condensed_bytes, forecast_checks, hash_forecast, hash_history,
};
use crate::Args;
use icn_cluster::{agglomerate_condensed, sweep_k, Condensed, Dendrogram, Linkage};
use icn_core::{
    cluster_heatmap, env_index, filter_dead_rows, rsca, service_heatmap, EnvCrosstab, StudyConfig,
    TemporalHeatmap,
};
use icn_synth::{Antenna, Environment, StudyCalendar};

/// The Figure 11 panels: (service, super-group role), where the roles are
/// 0 = commuter (metro-dominated), 1 = event (stadium), 2 = daytime.
const PANELS: [(&str, usize); 9] = [
    ("Spotify", 0),
    ("Twitter", 0),
    ("Transportation Websites", 0),
    ("Netflix", 1),
    ("Waze", 1),
    ("Snapchat", 1),
    ("Microsoft Teams", 2),
    ("Netflix", 2),
    ("Waze", 2),
];

pub(crate) fn run(args: &Args, layers: &mut Layers) -> Result<Outcome, String> {
    let (ds, setup_s) = study::dataset(args, layers);
    let cfg = StudyConfig::paper();
    let window = StudyCalendar::temporal_window();
    let full_days = StudyCalendar::paper_period().num_days();

    let timer = Timer::start();
    let (t_live, live_rows, rsca_m) = layers.call("core.rsca", || {
        let (t_live, live_rows) = filter_dead_rows(&ds.indoor_totals);
        let rsca_m = rsca(&t_live);
        (t_live, live_rows, rsca_m)
    });
    let cond = layers.call("cluster.condensed", || {
        Condensed::from_rows(&rsca_m, Linkage::Ward.base_metric())
    });
    let history = layers.call("cluster.agglomerate", || {
        agglomerate_condensed(&cond, Linkage::Ward)
    });
    let dendrogram = layers.call("cluster.dendrogram", || Dendrogram::from_history(&history));
    let k_sweep = layers.call("cluster.sweep_k", || {
        sweep_k(
            &history,
            &cond.sqrt_values(),
            cfg.k_sweep_lo..=cfg.k_sweep_hi.min(history.n - 1),
        )
    });
    drop(cond);
    let (labels, coarse3) = layers.call("cluster.cut", || (history.cut(cfg.k), dendrogram.cut(3)));
    let crosstab = layers.call("core.crosstab", || {
        let live: Vec<Antenna> = live_rows.iter().map(|&i| ds.antennas[i].clone()).collect();
        EnvCrosstab::build(&live, &labels, cfg.k)
    });

    let mut antenna_series = 0usize;
    let mut fig10: Vec<TemporalHeatmap> = Vec::new();
    for c in 0..cfg.k {
        let (members, rows): (Vec<&Antenna>, Vec<&[f64]>) = live_rows
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == c)
            .map(|(&row, _)| (&ds.antennas[row], ds.indoor_totals.row(row)))
            .unzip();
        if members.is_empty() {
            continue;
        }
        antenna_series += members.len();
        fig10.push(layers.call("temporal.cluster_heatmap", || {
            cluster_heatmap(
                &members,
                &rows,
                &ds.services,
                full_days,
                &window,
                ds.root_rng(),
            )
        }));
    }

    // Super-group of each cluster (its members' cut at 3), and which group
    // plays which role, read off the crosstab as the Figure 11 bench does.
    let group_of: Vec<Option<usize>> = (0..cfg.k)
        .map(|c| labels.iter().position(|&l| l == c).map(|pos| coarse3[pos]))
        .collect();
    let mass = |g: usize, env: Environment| -> usize {
        (0..cfg.k)
            .filter(|&c| group_of[c] == Some(g))
            .map(|c| crosstab.counts[c][env_index(env)])
            .sum()
    };
    let mut roles = [0usize; 3];
    for g in 0..3 {
        let masses = [
            mass(g, Environment::Metro),
            mass(g, Environment::Stadium),
            mass(g, Environment::Workspace),
        ];
        let max = masses.iter().copied().max().unwrap_or(0);
        let role = masses.iter().position(|&m| m == max).unwrap_or(2);
        roles[role] = g;
    }
    let mut fig11: Vec<TemporalHeatmap> = Vec::new();
    for (service, role) in PANELS {
        let j = icn_synth::services::index_of(&ds.services, service)
            .ok_or_else(|| format!("service `{service}` not in the catalog"))?;
        let (members, totals): (Vec<&Antenna>, Vec<f64>) = live_rows
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| group_of[l] == Some(roles[role]))
            .map(|(&row, _)| (&ds.antennas[row], ds.indoor_totals.get(row, j)))
            .unzip();
        if members.is_empty() {
            continue;
        }
        antenna_series += members.len();
        fig11.push(layers.call("temporal.service_heatmap", || {
            service_heatmap(
                &members,
                &totals,
                &ds.services[j],
                full_days,
                &window,
                ds.root_rng(),
            )
        }));
    }

    let forecast = study::forecast_stage(&ds, &t_live, &live_rows, &labels, &cfg, layers);
    let (run_s, cpu_s) = timer.stop();
    let attributed_s = layers.attributed();

    let mut checks = Checks::default();
    forecast_checks(&mut checks, &forecast, &cfg.forecast_config());
    checks.check("k_sweep_points", k_sweep.len() == 14, || {
        format!("{} sweep points, want 14", k_sweep.len())
    });
    checks.check("fig10_heatmaps", fig10.len() == cfg.k, || {
        format!("{} cluster heatmaps, want {}", fig10.len(), cfg.k)
    });
    checks.check("fig11_panels", fig11.len() == PANELS.len(), || {
        format!("{} service panels, want {}", fig11.len(), PANELS.len())
    });
    let out_of_range = fig10
        .iter()
        .chain(&fig11)
        .flat_map(|hm| hm.values.iter().flatten())
        .filter(|v| !(0.0..=1.0).contains(*v))
        .count();
    checks.check("heatmap_values_in_unit_range", out_of_range == 0, || {
        format!("{out_of_range} heatmap cells outside [0, 1]")
    });

    let mut fp = Fingerprint::default();
    fp.usizes(&labels);
    hash_history(&mut fp, &history);
    for hm in fig10.iter().chain(&fig11) {
        fp.word(hm.n_antennas as u64);
        hm.values.iter().for_each(|day| fp.f64s(day));
    }
    hash_forecast(&mut fp, &forecast);

    let n = labels.len();
    Ok(Outcome {
        setup_s,
        run_s,
        cpu_s,
        records: ds.indoor_totals.as_slice().len() as u64,
        fingerprint: fp.finish(),
        checks,
        attributed_s,
        counts: vec![
            ("cluster.matrix_bytes", condensed_bytes(n)),
            ("temporal.antenna_series", antenna_series as f64),
            ("forecast.antenna_hours", antenna_hours(n)),
        ],
    })
}

//! Thread- and ordering-invariance for the stage-6 forecast subsystem:
//! the full study with `run_forecast` on must produce **bit-identical**
//! series, forecasts, backtest scores and anomaly verdicts at any
//! `ICN_THREADS`, and when the totals matrix is rebuilt by the streaming
//! ingest pipeline from a block-shuffled record feed — parallelism and
//! feed order are execution details, never answer details.
//!
//! Environment discipline: `ICN_THREADS` is process-global, so the whole
//! matrix lives in a single `#[test]` that saves and restores it (the
//! same convention as `icn-cluster/tests/ward_parallel.rs`).

use icn_repro::icn_forecast::ForecastReport;
use icn_repro::icn_testkit::{ingest_via_pipeline, shuffle_within_blocks};
use icn_repro::prelude::*;

mod common;

/// Exact bit-level fingerprint of a forecast report: every float is
/// compared via `to_bits`, every index set verbatim.
#[allow(clippy::type_complexity)]
fn fingerprint(r: &ForecastReport) -> Vec<(usize, usize, usize, Vec<u64>, Vec<usize>)> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    r.clusters
        .iter()
        .map(|c| {
            let mut floats = bits(&c.series);
            floats.extend(bits(&c.forecast));
            floats.extend(bits(&c.naive));
            floats.extend(bits(&c.ets));
            floats.extend(bits(&c.forest));
            floats.extend(bits(&c.anomalies.scores));
            floats.extend(bits(&c.anomalies.template));
            for s in [c.backtest.naive, c.backtest.ets, c.backtest.forest] {
                floats.push(s.mae.to_bits());
                floats.push(s.smape.to_bits());
            }
            (
                c.cluster,
                c.n_antennas,
                c.busy_hour,
                floats,
                c.anomalies.flagged.clone(),
            )
        })
        .collect()
}

fn drain(mut stream: RecordStream) -> Vec<HourlyRecord> {
    let mut out = Vec::new();
    loop {
        let chunk = stream.next_chunk(8192).expect("clean stream");
        if chunk.is_empty() {
            return out;
        }
        out.extend(chunk);
    }
}

#[test]
fn forecast_is_bit_identical_across_threads_and_shuffled_ingest() {
    let _guard = common::EnvGuard::capture();
    let ds = Dataset::generate(SynthConfig::small());
    let config = || StudyConfig {
        run_forecast: true,
        ..StudyConfig::fast()
    };

    // Baseline: pinned single thread.
    std::env::set_var("ICN_THREADS", "1");
    let base = IcnStudy::run(&ds, config());
    let base_fp = fingerprint(base.forecast.as_ref().expect("forecast stage ran"));
    assert!(!base_fp.is_empty());

    for threads in ["2", "8"] {
        std::env::set_var("ICN_THREADS", threads);
        let st = IcnStudy::run(&ds, config());
        let fp = fingerprint(st.forecast.as_ref().expect("forecast stage ran"));
        assert_eq!(
            fp, base_fp,
            "forecast output drifted at ICN_THREADS={threads}"
        );
    }

    // Ordering: rebuild `T` through the streaming ingest pipeline from a
    // block-shuffled record feed (bounded reordering stays inside the
    // lateness window, so ingest reproduces the batch matrix bit-exactly)
    // and run the study from that matrix — still at 8 threads.
    let window = common::probe_window(2);
    let stream = record_stream(&ds, &window);
    let schema = stream.schema();
    let records = drain(stream);
    let shuffled = shuffle_within_blocks(&records, 256, 0x7EC7);
    let ingest = ingest_via_pipeline(&shuffled, schema, IngestConfig::default());
    assert_eq!(ingest.stats.quarantined_total(), 0);
    let st = IcnStudy::from_ingest(&ds, &ingest, config()).expect("ingest-fed study");
    let fp = fingerprint(st.forecast.as_ref().expect("forecast stage ran"));
    assert_eq!(fp, base_fp, "forecast output drifted under shuffled ingest");
}

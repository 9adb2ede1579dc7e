//! `ingest_faulty_feed`: the hourly record feed through the ingest pipeline.
//!
//! The scale-`args.scale` campaign is serialized by `record_stream` over
//! [`FEED_DAYS`] days, wrapped in `FaultySource` with duplicate and reorder
//! faults, and pulled chunk by chunk through `IngestPipeline::run`, the way
//! `icn ingest --faults` runs it. A [`TimedSource`] keeps the generator's
//! time (including the fault injector's buffering) out of the pipeline's.
//! The traced pass also streams the clean feed, the baseline for the
//! injector's short chunks.

use crate::measure::{Checks, Fingerprint, Layers, Outcome, TimedSource, Timer};
use crate::{timed_setup, Args};
use icn_ingest::{
    FaultConfig, IngestConfig, IngestPipeline, IngestResult, IngestStats, QuarantineReason,
    RecordSource,
};
use icn_stats::Matrix;
use icn_synth::{record_stream, Dataset, Date, StudyCalendar, SynthConfig};

/// Length of the feed: one day of scale-1.0 records is 8.3 million.
pub(crate) const FEED_DAYS: usize = 1;

/// Duplicate and reorder rates of the faulty feed: every injected fault is
/// one the pipeline must absorb without changing `T`.
const DUPLICATE: f64 = 0.01;
const REORDER: f64 = 0.2;

pub(crate) fn run(args: &Args, layers: &mut Layers) -> Result<Outcome, String> {
    let window = StudyCalendar::custom(Date::new(2023, 1, 9), FEED_DAYS);
    let ((ds, stream), setup_s) = timed_setup(args.setup_reps, || {
        let ds = layers.call("synth.generate", || {
            Dataset::generate(
                SynthConfig::paper()
                    .with_seed(args.seed)
                    .with_scale(args.scale),
            )
        });
        let stream = layers.call("synth.record_stream", || record_stream(&ds, &window));
        (ds, stream)
    });
    let faults = FaultConfig {
        seed: args.seed ^ 0xFA_017,
        duplicate: DUPLICATE,
        reorder: REORDER,
        ..FaultConfig::default()
    };
    let schema = stream.schema();
    let mut source = TimedSource::new(stream.with_faults(faults));

    let timer = Timer::start();
    let (stats, result) = pipeline(
        schema,
        &mut source,
        "ingest.pipeline",
        "synth.source",
        layers,
    )?;
    let (wall, cpu) = timer.stop();
    let run_s = wall - source.wall_s;
    let cpu_s = cpu - source.cpu_s;
    let attributed_s = layers.attributed();

    let mut checks = Checks::default();
    let report = source.inner().report();
    bit_identical(
        &mut checks,
        "streamed_T_bit_identical",
        &result.totals,
        &ds.indoor_totals,
    );
    let dup = stats.quarantined_for(QuarantineReason::DuplicateKey);
    checks.check(
        "duplicate_quarantine_matches_injected",
        dup == report.duplicated && dup > 0,
        || {
            format!(
                "{dup} quarantined as duplicate_key, {} injected",
                report.duplicated
            )
        },
    );
    let other: Vec<&String> = stats
        .quarantined
        .keys()
        .filter(|k| k.as_str() != QuarantineReason::DuplicateKey.label())
        .collect();
    checks.check("no_other_quarantine_reason", other.is_empty(), || {
        format!("unexpected quarantine reasons {other:?}")
    });
    checks.check(
        "every_record_consumed",
        result.records_consumed == source.records && report.reordered_blocks > 0,
        || {
            format!(
                "{} consumed of {} handed out, {} reordered blocks",
                result.records_consumed, source.records, report.reordered_blocks
            )
        },
    );

    let mut fp = Fingerprint::default();
    fp.f64s(result.totals.as_slice());
    fp.f64s(&result.hourly_volume);
    fp.word(stats.ok);
    for (reason, n) in &stats.quarantined {
        reason.bytes().for_each(|b| fp.word(u64::from(b)));
        fp.word(*n);
    }

    let consumed = result.records_consumed as f64;
    let mut counts = vec![
        ("ingest.chunks", stats.chunks as f64),
        ("ingest.records_ok", stats.ok as f64),
        ("ingest.quarantined", stats.quarantined_total() as f64),
        ("ingest.ok_ratio", stats.ok as f64 / consumed.max(1.0)),
        (
            "synth.records_per_chunk",
            source.records as f64 / source.chunks.max(1) as f64,
        ),
    ];
    if layers.traced() {
        // The clean feed: same records in full-size chunks, no faults.
        let mut clean = TimedSource::new(record_stream(&ds, &window));
        let (clean_stats, clean_result) = pipeline(
            schema,
            &mut clean,
            "ingest.clean_pipeline",
            "synth.clean_source",
            layers,
        )?;
        bit_identical(
            &mut checks,
            "clean_T_bit_identical",
            &clean_result.totals,
            &ds.indoor_totals,
        );
        counts.push(("ingest.clean_chunks", clean_stats.chunks as f64));
        counts.push((
            "synth.clean_records_per_chunk",
            clean.records as f64 / clean.chunks.max(1) as f64,
        ));
    }

    Ok(Outcome {
        setup_s,
        run_s,
        cpu_s,
        records: result.records_consumed,
        fingerprint: fp.finish(),
        checks,
        attributed_s,
        counts,
    })
}

/// Streams `source` through a fresh pipeline as one call into `layer`,
/// then moves the source's share of that call to `source_layer`.
fn pipeline<S: RecordSource>(
    schema: icn_ingest::IngestSchema,
    source: &mut TimedSource<S>,
    layer: &'static str,
    source_layer: &'static str,
    layers: &mut Layers,
) -> Result<(IngestStats, IngestResult), String> {
    let before = source.wall_s;
    let out = layers.call(layer, || {
        let mut pipe = IngestPipeline::new(schema, IngestConfig::default());
        pipe.run(source)?;
        let stats = pipe.stats().clone();
        Ok::<_, icn_ingest::IngestError>((stats, pipe.finish()))
    });
    let source_s = source.wall_s - before;
    layers.add(layer, -source_s);
    layers.add(source_layer, source_s);
    out.map_err(|e| e.to_string())
}

fn bit_identical(checks: &mut Checks, name: &str, streamed: &Matrix, batch: &Matrix) {
    let diverging = streamed
        .as_slice()
        .iter()
        .zip(batch.as_slice())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    let same_shape = streamed.shape() == batch.shape();
    checks.check(name, same_shape && diverging == 0, || {
        format!(
            "{diverging} of {} cells diverge from the batch matrix",
            batch.as_slice().len()
        )
    });
}

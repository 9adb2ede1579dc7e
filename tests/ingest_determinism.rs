//! The headline invariant of `icn-ingest`: streaming construction of `T`
//! is **bit-identical** to the batch matrix — at any chunk size, any
//! worker-thread count, any bounded reordering, and across checkpoint
//! kill-and-resume cycles.
//!
//! The synthetic record stream telescopes each cell's per-hour volumes so
//! that the canonical ascending-hour fold lands exactly on the batch
//! totals; these tests hold the production pipeline to that contract at
//! two paper-config scales and cross-check it against the independent
//! naive oracle from `icn-testkit` — on the dense synthetic feed and, as a
//! seeded property, on sparse and faulty feeds at several lateness values.

use icn_repro::icn_ingest::StreamAccumulator;
use icn_repro::icn_stats::check;
use icn_repro::icn_testkit::{
    assert_bits_eq, ingest_via_pipeline, naive_ingest, shuffle_within_blocks,
};
use icn_repro::prelude::*;

mod common;

fn paper_dataset(scale: f64) -> Dataset {
    Dataset::generate(SynthConfig::paper().with_scale(scale))
}

/// Drains a record stream into one vector (the "batch view" of the feed).
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
fn streaming_equals_batch_and_oracle_at_scale_005() {
    let ds = paper_dataset(0.05);
    let window = common::probe_window(3);
    let stream = record_stream(&ds, &window);
    let schema = stream.schema();
    let records = drain(stream);
    assert_eq!(records.len() as u64, schema.total_records());

    let got = ingest_via_pipeline(&records, schema, IngestConfig::default());
    assert_eq!(got.stats.quarantined_total(), 0);
    // Headline: the streamed matrix IS the batch matrix, bit for bit.
    assert_bits_eq(
        got.totals.as_slice(),
        ds.indoor_totals.as_slice(),
        "streamed T vs batch T (scale 0.05)",
    );
    // Differential oracle: the independent sequential reference agrees.
    let want = naive_ingest(&records, schema, 2);
    assert_bits_eq(
        want.totals.as_slice(),
        got.totals.as_slice(),
        "oracle totals",
    );
    assert_bits_eq(
        &want.hourly_volume,
        &got.hourly_volume,
        "oracle hourly volume",
    );
    assert_eq!(want.hourly_records, got.hourly_records);
}

#[test]
fn streaming_equals_batch_at_scale_02() {
    let ds = paper_dataset(0.2);
    let window = common::probe_window(1);
    let mut stream = record_stream(&ds, &window);
    let mut pipe = IngestPipeline::new(stream.schema(), IngestConfig::default());
    pipe.run(&mut stream).expect("clean stream");
    let got = pipe.finish();
    assert_eq!(got.stats.quarantined_total(), 0);
    assert_bits_eq(
        got.totals.as_slice(),
        ds.indoor_totals.as_slice(),
        "streamed T vs batch T (scale 0.2)",
    );
}

/// The full determinism matrix — chunk sizes × thread counts — in a single
/// test function, because `ICN_THREADS` is process-global state that must
/// not race with concurrently running tests.
#[test]
fn totals_bits_survive_any_chunk_size_and_thread_count() {
    let ds = paper_dataset(0.05);
    let window = common::probe_window(1);
    let saved = std::env::var("ICN_THREADS").ok();
    let mut reference: Option<IngestResult> = None;
    for &threads in &[1usize, 2, 8] {
        std::env::set_var("ICN_THREADS", threads.to_string());
        for &chunk in &[1usize, 97, 4096] {
            let mut stream = record_stream(&ds, &window);
            let mut pipe = IngestPipeline::new(
                stream.schema(),
                IngestConfig {
                    chunk_size: chunk,
                    ..IngestConfig::default()
                },
            );
            pipe.run(&mut stream).expect("clean stream");
            let got = pipe.finish();
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    let what = format!("chunk {chunk} x threads {threads}");
                    assert_bits_eq(want.totals.as_slice(), got.totals.as_slice(), &what);
                    assert_bits_eq(&want.hourly_volume, &got.hourly_volume, &what);
                    assert_eq!(want.hourly_records, got.hourly_records, "{what}");
                    assert_eq!(want.stats.ok, got.stats.ok, "{what}");
                }
            }
        }
    }
    match saved {
        Some(v) => std::env::set_var("ICN_THREADS", v),
        None => std::env::remove_var("ICN_THREADS"),
    }
    // And the matrix's shared reference is the batch matrix itself.
    assert_bits_eq(
        reference.expect("matrix ran").totals.as_slice(),
        ds.indoor_totals.as_slice(),
        "determinism-matrix reference vs batch T",
    );
}

#[test]
fn bounded_reordering_is_invisible() {
    let ds = paper_dataset(0.05);
    let window = common::probe_window(1);
    let stream = record_stream(&ds, &window);
    let schema = stream.schema();
    let records = drain(stream);
    // Blocks of 256 ≪ records per hour, so every record stays inside the
    // lateness window: the metamorphic transformation must be a no-op.
    let shuffled = shuffle_within_blocks(&records, 256, 0xB10C);
    let got = ingest_via_pipeline(&shuffled, schema, IngestConfig::default());
    assert_eq!(got.stats.quarantined_total(), 0);
    assert_bits_eq(
        got.totals.as_slice(),
        ds.indoor_totals.as_slice(),
        "reordered stream vs batch T",
    );
}

#[test]
fn kill_and_resume_reproduces_the_run_from_any_checkpoint() {
    let ds = paper_dataset(0.05);
    let window = common::probe_window(2);
    let config = IngestConfig {
        chunk_size: 512,
        ..IngestConfig::default()
    };

    let mut straight = IngestPipeline::new(record_stream(&ds, &window).schema(), config);
    let mut stream = record_stream(&ds, &window);
    straight.run(&mut stream).expect("clean stream");
    let final_hash = straight.checkpoint().hash();
    let want = straight.finish();

    for &halt_after in &[1u64, 7, 40] {
        let mut first = IngestPipeline::new(record_stream(&ds, &window).schema(), config);
        let mut stream = record_stream(&ds, &window);
        let finished = first
            .run_until(&mut stream, Some(halt_after))
            .expect("clean stream");
        assert!(!finished, "halt point {halt_after} must be mid-stream");
        // Serialize, drop (the "kill"), and re-parse the checkpoint: the
        // resumed pipeline sees only what survived the round-trip.
        let rendered = first.checkpoint().render();
        drop(first);
        let ck = Checkpoint::parse(&rendered).expect("round-trip checkpoint");
        let consumed = ck.records_consumed;
        let mut resumed = IngestPipeline::from_checkpoint(ck, config).expect("compatible");
        let mut stream = record_stream(&ds, &window);
        stream.skip_records(consumed).expect("skip prefix");
        resumed.run(&mut stream).expect("clean stream");
        assert_eq!(
            resumed.checkpoint().hash(),
            final_hash,
            "final state hash after resume from chunk {halt_after}"
        );
        let got = resumed.finish();
        let what = format!("resume from chunk {halt_after}");
        assert_bits_eq(want.totals.as_slice(), got.totals.as_slice(), &what);
        assert_bits_eq(&want.hourly_volume, &got.hourly_volume, &what);
        assert_eq!(want.hourly_records, got.hourly_records, "{what}");
        assert_eq!(want.stats, got.stats, "{what}");
        assert_eq!(want.records_consumed, got.records_consumed, "{what}");
    }
}

/// A sparse, misbehaving feed over `schema`: hours advance in jumps (some
/// hours stay empty), stragglers trail the newest hour by up to
/// `lateness + 3` (some past the horizon), records repeat, and a few fail
/// validation. Volumes mix magnitudes so the fold order shows in the bits.
fn sparse_feed(rng: &mut Rng, schema: IngestSchema, lateness: u32, n: usize) -> Vec<HourlyRecord> {
    let mut out: Vec<HourlyRecord> = Vec::with_capacity(n);
    let mut newest = 0u32;
    while out.len() < n {
        let roll = rng.next_f64();
        if roll < 0.08 && !out.is_empty() {
            let dup = out[rng.index(out.len())];
            out.push(dup);
            continue;
        }
        let hour = if roll < 0.2 {
            newest += rng.below(5) as u32;
            newest
        } else if roll < 0.35 {
            newest.saturating_sub(rng.below(u64::from(lateness) + 4) as u32)
        } else {
            newest
        };
        let mut r = HourlyRecord {
            antenna: rng.below(u64::from(schema.antennas)) as u32,
            service: rng.below(u64::from(schema.services)) as u32,
            hour,
            bytes_dl: if rng.chance(0.1) {
                1e16
            } else {
                rng.uniform(0.0, 3.0)
            },
            bytes_ul: rng.uniform(0.0, 1.0),
        };
        match rng.below(40) {
            0 => r.antenna = schema.antennas + rng.below(3) as u32,
            1 => r.service = schema.services,
            2 => r.bytes_ul = f64::NAN,
            3 => r.bytes_dl = -1.0,
            _ => {}
        }
        out.push(r);
    }
    out
}

/// Sparse hours, empty hours, duplicates, late and invalid records at
/// lateness 0, 1, 2 and 48: every per-record accept/quarantine decision of
/// the accumulator equals the naive oracle's, the folded outputs are
/// bit-identical to it, and a checkpoint taken at a random halt point
/// renders, parses and re-renders byte-identically and resumes to the
/// oracle's result.
#[test]
fn sparse_feeds_match_the_oracle_at_any_lateness_and_halt_point() {
    check::cases(64, |case, rng| {
        let lateness = [0u32, 1, 2, 48][case as usize % 4];
        let schema = IngestSchema {
            antennas: 1 + rng.below(6) as u32,
            services: 1 + rng.below(5) as u32,
            hours: 1 + rng.below(80) as u32,
        };
        let n = check::len_in(rng, 0, 300);
        let records = sparse_feed(rng, schema, lateness, n);
        check::record(format!("{schema:?} lateness {lateness}, {n} records"));
        let want = naive_ingest(&records, schema, lateness);

        let mut acc = StreamAccumulator::new(schema, lateness);
        for (k, r) in records.iter().enumerate() {
            let got = acc.insert(r).err().map(|q| q.label());
            assert_eq!(got, want.verdicts[k], "case {case}: record {k} {r:?}");
        }
        let out = acc.finish();
        assert_bits_eq(
            want.totals.as_slice(),
            out.totals.as_slice(),
            "accumulator totals",
        );
        assert_bits_eq(
            &want.hourly_volume,
            &out.hourly_volume,
            "accumulator hourly volume",
        );
        assert_eq!(want.hourly_records, out.hourly_records);

        let config = IngestConfig {
            chunk_size: 1 + rng.index(40),
            lateness_hours: lateness,
            ..IngestConfig::default()
        };
        let halt = rng.below(12);
        let mut first = IngestPipeline::new(schema, config);
        first
            .run_until(&mut VecSource::new(records.clone()), Some(halt))
            .expect("in-memory source");
        let rendered = first.checkpoint().render();
        let ck = Checkpoint::parse(&rendered).expect("round-trip checkpoint");
        assert_eq!(
            ck.render(),
            rendered,
            "case {case}: re-render after halt {halt}"
        );
        let consumed = ck.records_consumed;
        let mut resumed = IngestPipeline::from_checkpoint(ck, config).expect("compatible");
        let mut rest = VecSource::new(records.clone());
        rest.skip_records(consumed).expect("skip prefix");
        resumed.run(&mut rest).expect("in-memory source");
        let got = resumed.finish();
        assert_bits_eq(
            want.totals.as_slice(),
            got.totals.as_slice(),
            "resumed totals",
        );
        assert_bits_eq(
            &want.hourly_volume,
            &got.hourly_volume,
            "resumed hourly volume",
        );
        assert_eq!(want.hourly_records, got.hourly_records);
        assert_eq!(want.ok, got.stats.ok);
        let got_q: Vec<(String, u64)> = got.stats.quarantined.into_iter().collect();
        assert_eq!(want.quarantined, got_q);
        assert_eq!(got.records_consumed, n as u64);
    });
}

//! The hourly record schema, validation, and the record-source trait.
//!
//! The paper's matrix `T` condenses two months of per-hour, per-service
//! measurements (Section 2). A production feed delivers those measurements
//! as a *stream* of [`HourlyRecord`]s, and real streams misbehave: unknown
//! service ids after a DPI catalog update, hours outside the study window,
//! negative or NaN byte counts from collector bugs, duplicated deliveries.
//! [`IngestSchema::validate`] classifies every structural defect into a
//! [`QuarantineReason`]; the sequencing defects (duplicates, late arrivals)
//! are detected downstream by the accumulator, which owns the ordering
//! state.

use std::fmt;

/// One measurement: traffic of one service at one antenna during one hour
/// of the study window. Volumes are in MB, matching the unit of the totals
/// matrix `T`; `bytes_dl`/`bytes_ul` follow the downlink/uplink split of
/// the operator feed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HourlyRecord {
    /// Antenna id = row index into `T`.
    pub antenna: u32,
    /// Service id = column index into `T`.
    pub service: u32,
    /// Hour index into the study window (0-based).
    pub hour: u32,
    /// Downlink volume (MB).
    pub bytes_dl: f64,
    /// Uplink volume (MB).
    pub bytes_ul: f64,
}

impl HourlyRecord {
    /// Total volume of the record, the value folded into `T`.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.bytes_dl + self.bytes_ul
    }

    /// The deduplication key: one record per (antenna, service, hour).
    #[inline]
    pub fn key(&self) -> (u32, u32, u32) {
        (self.antenna, self.service, self.hour)
    }
}

/// Why a record was routed to the quarantine sink instead of `T`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QuarantineReason {
    /// `bytes_dl` or `bytes_ul` is NaN or infinite.
    NonFiniteVolume,
    /// `bytes_dl` or `bytes_ul` is negative.
    NegativeVolume,
    /// Antenna id outside the schema's row range.
    UnknownAntenna,
    /// Service id outside the schema's column range.
    UnknownService,
    /// Hour index outside the study window.
    OutOfWindowHour,
    /// A record with the same (antenna, service, hour) key was already
    /// accepted into the open bucket for that hour.
    DuplicateKey,
    /// The record's hour was already sealed by the watermark (it arrived
    /// more than the allowed lateness behind the newest hour seen).
    LateArrival,
}

impl QuarantineReason {
    /// Every reason, in validation-priority order (the order checks are
    /// applied, so each bad record maps to exactly one reason).
    pub const ALL: [QuarantineReason; 7] = [
        QuarantineReason::NonFiniteVolume,
        QuarantineReason::NegativeVolume,
        QuarantineReason::UnknownAntenna,
        QuarantineReason::UnknownService,
        QuarantineReason::OutOfWindowHour,
        QuarantineReason::DuplicateKey,
        QuarantineReason::LateArrival,
    ];

    /// Stable snake_case label used in counters, checkpoints and reports.
    pub fn label(&self) -> &'static str {
        match self {
            QuarantineReason::NonFiniteVolume => "non_finite_volume",
            QuarantineReason::NegativeVolume => "negative_volume",
            QuarantineReason::UnknownAntenna => "unknown_antenna",
            QuarantineReason::UnknownService => "unknown_service",
            QuarantineReason::OutOfWindowHour => "out_of_window_hour",
            QuarantineReason::DuplicateKey => "duplicate_key",
            QuarantineReason::LateArrival => "late_arrival",
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The dimensions a record stream must conform to: `antennas × services`
/// cells over `hours` window slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestSchema {
    /// Number of antennas (rows of `T`).
    pub antennas: u32,
    /// Number of services (columns of `T`).
    pub services: u32,
    /// Number of hours in the study window.
    pub hours: u32,
}

impl IngestSchema {
    /// Structural validation of one record. Checks run in the fixed
    /// priority order of [`QuarantineReason::ALL`], so a record failing
    /// several ways is always attributed to the same (first) reason —
    /// a requirement for exact quarantine accounting under fault
    /// injection. This check is stateless; the accumulator runs it ahead
    /// of its stateful duplicate/late checks.
    pub fn validate(&self, r: &HourlyRecord) -> Result<(), QuarantineReason> {
        if !r.bytes_dl.is_finite() || !r.bytes_ul.is_finite() {
            return Err(QuarantineReason::NonFiniteVolume);
        }
        if r.bytes_dl < 0.0 || r.bytes_ul < 0.0 {
            return Err(QuarantineReason::NegativeVolume);
        }
        if r.antenna >= self.antennas {
            return Err(QuarantineReason::UnknownAntenna);
        }
        if r.service >= self.services {
            return Err(QuarantineReason::UnknownService);
        }
        if r.hour >= self.hours {
            return Err(QuarantineReason::OutOfWindowHour);
        }
        Ok(())
    }

    /// Total number of records a gap-free stream over this schema carries.
    pub fn total_records(&self) -> u64 {
        self.antennas as u64 * self.services as u64 * self.hours as u64
    }
}

/// An error surfaced by a record source.
#[derive(Clone, Debug, PartialEq)]
pub enum SourceError {
    /// Retryable (network hiccup, collector restart): the pipeline retries
    /// with bounded backoff.
    Transient(String),
    /// Unrecoverable: the pipeline aborts and reports it.
    Fatal(String),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Transient(m) => write!(f, "transient source error: {m}"),
            SourceError::Fatal(m) => write!(f, "fatal source error: {m}"),
        }
    }
}

/// A pull-based stream of hourly records.
pub trait RecordSource {
    /// Returns the next batch of up to `max` records. An empty vector
    /// signals end of stream. A [`SourceError::Transient`] error leaves the
    /// source in a retryable state: the same call may succeed next time
    /// without losing records.
    fn next_chunk(&mut self, max: usize) -> Result<Vec<HourlyRecord>, SourceError>;

    /// Skips the next `n` records (used when resuming from a checkpoint).
    ///
    /// The default implementation pulls and discards, which also replays
    /// any internal generator state — required for synthetic sources whose
    /// record values depend on a running fold. Sources backed by seekable
    /// storage may override with an O(1) seek.
    fn skip_records(&mut self, mut n: u64) -> Result<(), SourceError> {
        const SKIP_CHUNK: usize = 8192;
        let mut transient_budget = 100u32;
        while n > 0 {
            let want = (n as usize).min(SKIP_CHUNK);
            match self.next_chunk(want) {
                Ok(batch) => {
                    if batch.is_empty() {
                        return Err(SourceError::Fatal(format!(
                            "skip_records: stream ended with {n} records still to skip"
                        )));
                    }
                    n -= batch.len() as u64;
                }
                Err(SourceError::Transient(_)) if transient_budget > 0 => {
                    transient_budget -= 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// An in-memory record source, used by tests and the differential oracle.
#[derive(Clone, Debug)]
pub struct VecSource {
    records: Vec<HourlyRecord>,
    pos: usize,
}

impl VecSource {
    /// Wraps a vector of records.
    pub fn new(records: Vec<HourlyRecord>) -> VecSource {
        VecSource { records, pos: 0 }
    }

    /// Records not yet served.
    pub fn remaining(&self) -> usize {
        self.records.len() - self.pos
    }
}

impl RecordSource for VecSource {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<HourlyRecord>, SourceError> {
        let hi = (self.pos + max).min(self.records.len());
        let out = self.records[self.pos..hi].to_vec();
        self.pos = hi;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> IngestSchema {
        IngestSchema {
            antennas: 10,
            services: 5,
            hours: 24,
        }
    }

    fn ok_record() -> HourlyRecord {
        HourlyRecord {
            antenna: 3,
            service: 2,
            hour: 7,
            bytes_dl: 10.0,
            bytes_ul: 2.0,
        }
    }

    #[test]
    fn valid_record_passes() {
        assert_eq!(schema().validate(&ok_record()), Ok(()));
    }

    #[test]
    fn validation_priority_is_fixed() {
        // A record failing multiple checks maps to the highest-priority one.
        let r = HourlyRecord {
            antenna: 99,
            service: 99,
            hour: 99,
            bytes_dl: f64::NAN,
            bytes_ul: -1.0,
        };
        assert_eq!(
            schema().validate(&r),
            Err(QuarantineReason::NonFiniteVolume)
        );
        let r2 = HourlyRecord {
            bytes_dl: -1.0,
            ..ok_record()
        };
        assert_eq!(
            schema().validate(&r2),
            Err(QuarantineReason::NegativeVolume)
        );
    }

    #[test]
    fn each_dimension_is_checked() {
        let s = schema();
        let bad_antenna = HourlyRecord {
            antenna: 10,
            ..ok_record()
        };
        assert_eq!(
            s.validate(&bad_antenna),
            Err(QuarantineReason::UnknownAntenna)
        );
        let bad_service = HourlyRecord {
            service: 5,
            ..ok_record()
        };
        assert_eq!(
            s.validate(&bad_service),
            Err(QuarantineReason::UnknownService)
        );
        let bad_hour = HourlyRecord {
            hour: 24,
            ..ok_record()
        };
        assert_eq!(
            s.validate(&bad_hour),
            Err(QuarantineReason::OutOfWindowHour)
        );
    }

    #[test]
    fn labels_are_unique_and_stable() {
        let mut labels: Vec<&str> = QuarantineReason::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), QuarantineReason::ALL.len());
    }

    #[test]
    fn vec_source_serves_in_chunks() {
        let recs: Vec<HourlyRecord> = (0..10)
            .map(|i| HourlyRecord {
                antenna: i,
                service: 0,
                hour: 0,
                bytes_dl: 1.0,
                bytes_ul: 0.0,
            })
            .collect();
        let mut src = VecSource::new(recs);
        assert_eq!(src.next_chunk(4).unwrap().len(), 4);
        assert_eq!(src.remaining(), 6);
        src.skip_records(5).unwrap();
        let tail = src.next_chunk(100).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].antenna, 9);
        assert!(src.next_chunk(1).unwrap().is_empty());
    }

    #[test]
    fn skip_past_end_is_fatal() {
        let mut src = VecSource::new(Vec::new());
        assert!(matches!(src.skip_records(1), Err(SourceError::Fatal(_))));
    }
}

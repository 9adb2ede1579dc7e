//! Watermark-bucketed accumulation of validated records into `T`.
//!
//! The determinism contract of the whole subsystem lives here. Records may
//! arrive chunked arbitrarily, interleaved, duplicated, or reordered within
//! a bounded lateness window, yet the final matrix must be **bit-identical**
//! to the batch construction. Float addition is not associative, so the
//! accumulator never folds in arrival order. Instead:
//!
//! 1. incoming records land in an *open bucket* per hour: a dense
//!    `antennas × services` slab of `(dl, ul)` plus a presence bitset
//!    ([`HourBucket`]), so insertion order is forgotten;
//! 2. a watermark (`max_hour_seen − lateness`) seals hours that can no
//!    longer legally receive records, the moment a record advances it;
//! 3. sealed hours are folded in ascending hour order, cells in ascending
//!    `(antenna, service)` order — the slab's ascending index order.
//!
//! Every cell of `T` therefore accumulates its per-hour contributions in
//! exactly one canonical order — ascending hour — no matter how the stream
//! was chunked, threaded, or (boundedly) reordered. Duplicate and late
//! records are rejected here because only the accumulator holds the
//! sequencing state needed to detect them.
//!
//! Open hours always lie in `[max_hour_seen − lateness, max_hour_seen]`,
//! and a sealed slab is recycled for the next hour opened, so at most
//! `min(lateness + 1, hours)` slabs are ever allocated: a bound of
//! `(lateness + 1) · antennas · services · (16 B + 1 bit)`.

use std::fmt;
use std::time::Instant;

use icn_stats::Matrix;

use crate::record::{HourlyRecord, IngestSchema, QuarantineReason};

/// The open records of one hour: a dense `antennas × services` slab of
/// `(dl, ul)` plus a presence bitset. Cell `(a, s)` lives at index
/// `a · services + s` — its flat index in `T` — so ascending index order is
/// ascending `(antenna, service)` key order. This type is the one owner of
/// that layout: the accumulator folds through [`HourBucket::iter`], and the
/// checkpoint renders through it and parses through [`HourBucket::insert`].
#[derive(Clone)]
pub(crate) struct HourBucket {
    antennas: u32,
    services: u32,
    /// `(dl, ul)` per cell; meaningful only where `present` is set, so a
    /// recycled slab keeps its stale values.
    cells: Vec<[f64; 2]>,
    present: Vec<u64>,
    len: usize,
}

impl HourBucket {
    fn new(schema: &IngestSchema) -> HourBucket {
        let n = schema.antennas as usize * schema.services as usize;
        HourBucket {
            antennas: schema.antennas,
            services: schema.services,
            cells: vec![[0.0; 2]; n],
            present: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Stores cell `(antenna, service)`. A cell outside the dims is
    /// rejected with the reason validation would give it; a cell already
    /// present is a [`QuarantineReason::DuplicateKey`].
    pub(crate) fn insert(
        &mut self,
        antenna: u32,
        service: u32,
        dl: f64,
        ul: f64,
    ) -> Result<(), QuarantineReason> {
        if antenna >= self.antennas {
            return Err(QuarantineReason::UnknownAntenna);
        }
        if service >= self.services {
            return Err(QuarantineReason::UnknownService);
        }
        let i = antenna as usize * self.services as usize + service as usize;
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.present[word] & bit != 0 {
            return Err(QuarantineReason::DuplicateKey);
        }
        self.present[word] |= bit;
        self.cells[i] = [dl, ul];
        self.len += 1;
        Ok(())
    }

    /// Present cells in ascending index order, as `(index, dl, ul)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        self.present
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        w * 64 + b
                    })
                })
            })
            .map(|i| (i, self.cells[i][0], self.cells[i][1]))
    }

    /// The `(antenna, service)` key of a cell index.
    pub(crate) fn key(&self, index: usize) -> (u32, u32) {
        let s = self.services as usize;
        ((index / s) as u32, (index % s) as u32)
    }

    /// Number of present cells.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Empties the slab for reuse (cell values are left stale).
    fn clear(&mut self) {
        self.present.fill(0);
        self.len = 0;
    }
}

impl fmt::Debug for HourBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HourBucket")
            .field("dims", &(self.antennas, self.services))
            .field("records", &self.len)
            .finish()
    }
}

/// Incrementally maintained `T` plus per-hour temporal accumulators.
#[derive(Clone, Debug)]
pub struct StreamAccumulator {
    schema: IngestSchema,
    lateness: u32,
    /// Committed totals (rows = antennas, cols = services).
    totals: Matrix,
    /// Committed per-hour volume (temporal accumulator).
    hourly_volume: Vec<f64>,
    /// Committed per-hour accepted-record counts.
    hourly_records: Vec<u64>,
    /// Open buckets in ascending hour order, all inside the watermark
    /// window `[max_hour_seen − lateness, max_hour_seen]`.
    open: Vec<(u32, HourBucket)>,
    /// Sealed slabs kept for the next hour opened.
    spare: Vec<HourBucket>,
    /// Highest hour observed on any accepted record.
    max_hour_seen: Option<u32>,
    /// All hours `< committed_below` have been folded into `totals`.
    committed_below: u32,
}

/// The folded output of an accumulator: `T`, per-hour volume, per-hour
/// accepted-record counts.
#[derive(Clone, Debug, PartialEq)]
pub struct AccumulatedTotals {
    /// The antenna × service totals matrix.
    pub totals: Matrix,
    /// Total accepted volume per window hour.
    pub hourly_volume: Vec<f64>,
    /// Accepted records per window hour.
    pub hourly_records: Vec<u64>,
}

impl StreamAccumulator {
    /// Creates an empty accumulator. `lateness` is the number of hours a
    /// record may trail the newest hour seen before it is quarantined as
    /// [`QuarantineReason::LateArrival`].
    pub fn new(schema: IngestSchema, lateness: u32) -> StreamAccumulator {
        StreamAccumulator::from_parts(
            schema,
            lateness,
            Matrix::zeros(schema.antennas as usize, schema.services as usize),
            vec![0.0; schema.hours as usize],
            vec![0; schema.hours as usize],
            None,
            0,
        )
    }

    /// The schema this accumulator was built for.
    pub fn schema(&self) -> &IngestSchema {
        &self.schema
    }

    /// The configured lateness window, in hours.
    pub fn lateness(&self) -> u32 {
        self.lateness
    }

    /// Highest hour observed so far, if any record was accepted.
    pub fn max_hour_seen(&self) -> Option<u32> {
        self.max_hour_seen
    }

    /// All hours below this bound have been folded into the totals.
    pub fn committed_below(&self) -> u32 {
        self.committed_below
    }

    /// Number of records currently held in open (unsealed) buckets.
    pub fn open_records(&self) -> usize {
        self.open.iter().map(|(_, b)| b.len()).sum()
    }

    /// Committed totals so far (open buckets not included).
    pub fn committed_totals(&self) -> &Matrix {
        &self.totals
    }

    /// Inserts one record, running every check in the priority order of
    /// [`QuarantineReason::ALL`]: the stateless [`IngestSchema::validate`],
    /// then late arrival, then duplicate key. A record that advances the
    /// watermark first seals every hour the watermark has passed.
    ///
    /// The lateness check compares against `max_hour_seen` — a property of
    /// the record *sequence*, not of chunk boundaries — so the accept /
    /// quarantine decision for every record is invariant to how the stream
    /// is chunked.
    pub fn insert(&mut self, r: &HourlyRecord) -> Result<(), QuarantineReason> {
        self.schema.validate(r)?;
        match self.max_hour_seen {
            // r.hour + lateness < max, without overflow.
            Some(max) if r.hour < max.saturating_sub(self.lateness) => {
                return Err(QuarantineReason::LateArrival)
            }
            Some(max) if r.hour <= max => {}
            _ => {
                self.seal_below(r.hour.saturating_sub(self.lateness));
                self.max_hour_seen = Some(r.hour);
            }
        }
        let at = self.open.iter().rposition(|(h, _)| *h <= r.hour);
        let slot = match at {
            Some(i) if self.open[i].0 == r.hour => i,
            _ => {
                let i = at.map_or(0, |i| i + 1);
                let bucket = self.fresh_bucket();
                self.open.insert(i, (r.hour, bucket));
                i
            }
        };
        self.open[slot]
            .1
            .insert(r.antenna, r.service, r.bytes_dl, r.bytes_ul)
    }

    /// Folds every remaining open bucket (ascending hour order) and
    /// returns the final totals. Call once the stream has ended.
    pub fn finish(mut self) -> AccumulatedTotals {
        self.seal_below(u32::MAX);
        AccumulatedTotals {
            totals: self.totals,
            hourly_volume: self.hourly_volume,
            hourly_records: self.hourly_records,
        }
    }

    /// Seals and folds every open hour `< bound`, in ascending hour order,
    /// cells within an hour in ascending `(antenna, service)` order, and
    /// recycles the sealed slabs.
    fn seal_below(&mut self, bound: u32) {
        let n = self.open.partition_point(|(h, _)| *h < bound);
        let reg = icn_obs::global();
        for (hour, mut bucket) in self.open.drain(..n) {
            let t0 = reg.is_enabled().then(Instant::now);
            let h = hour as usize;
            let totals = self.totals.as_mut_slice();
            let mut volume = self.hourly_volume[h];
            for (i, dl, ul) in bucket.iter() {
                let v = dl + ul;
                totals[i] += v;
                volume += v;
            }
            self.hourly_volume[h] = volume;
            self.hourly_records[h] += bucket.len() as u64;
            bucket.clear();
            self.spare.push(bucket);
            if let Some(t0) = t0 {
                reg.record_hist("ingest.seal_ns", t0.elapsed().as_nanos() as u64);
            }
        }
        self.committed_below = self.committed_below.max(bound);
    }

    fn fresh_bucket(&mut self) -> HourBucket {
        self.spare
            .pop()
            .unwrap_or_else(|| HourBucket::new(&self.schema))
    }

    /// Reconstructs an accumulator from checkpoint state, with no open
    /// hours; [`StreamAccumulator::open_hour`] restores them.
    pub(crate) fn from_parts(
        schema: IngestSchema,
        lateness: u32,
        totals: Matrix,
        hourly_volume: Vec<f64>,
        hourly_records: Vec<u64>,
        max_hour_seen: Option<u32>,
        committed_below: u32,
    ) -> StreamAccumulator {
        StreamAccumulator {
            schema,
            lateness,
            totals,
            hourly_volume,
            hourly_records,
            open: Vec::new(),
            spare: Vec::new(),
            max_hour_seen,
            committed_below,
        }
    }

    /// Opens an empty bucket for `hour` after every open hour (checkpoint
    /// restore). The caller guarantees `hour` is inside the watermark
    /// window and above every hour already open.
    pub(crate) fn open_hour(&mut self, hour: u32) -> &mut HourBucket {
        debug_assert!(self.open.last().is_none_or(|(h, _)| *h < hour));
        let bucket = self.fresh_bucket();
        self.open.push((hour, bucket));
        &mut self.open.last_mut().expect("just pushed").1
    }

    /// The open buckets in ascending hour order (checkpoint serialization).
    pub(crate) fn open_buckets(&self) -> impl Iterator<Item = (u32, &HourBucket)> {
        self.open.iter().map(|(h, b)| (*h, b))
    }

    /// Read access to the committed hourly volume (checkpoint serialization).
    pub(crate) fn hourly_volume(&self) -> &[f64] {
        &self.hourly_volume
    }

    /// Read access to the committed hourly record counts.
    pub(crate) fn hourly_records(&self) -> &[u64] {
        &self.hourly_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> IngestSchema {
        IngestSchema {
            antennas: 4,
            services: 3,
            hours: 48,
        }
    }

    fn rec(a: u32, s: u32, h: u32, v: f64) -> HourlyRecord {
        HourlyRecord {
            antenna: a,
            service: s,
            hour: h,
            bytes_dl: v,
            bytes_ul: 0.0,
        }
    }

    #[test]
    fn duplicate_key_is_rejected() {
        let mut acc = StreamAccumulator::new(schema(), 2);
        assert!(acc.insert(&rec(0, 0, 0, 1.0)).is_ok());
        assert_eq!(
            acc.insert(&rec(0, 0, 0, 5.0)),
            Err(QuarantineReason::DuplicateKey)
        );
        let out = acc.finish();
        assert_eq!(out.totals.get(0, 0), 1.0);
        assert_eq!(out.hourly_records[0], 1);
    }

    #[test]
    fn late_arrival_is_rejected_by_watermark() {
        let mut acc = StreamAccumulator::new(schema(), 2);
        assert!(acc.insert(&rec(0, 0, 10, 1.0)).is_ok());
        // hour 7: 7 + 2 < 10 → late.
        assert_eq!(
            acc.insert(&rec(1, 0, 7, 1.0)),
            Err(QuarantineReason::LateArrival)
        );
        // hour 8: 8 + 2 = 10, not < 10 → inside the window.
        assert!(acc.insert(&rec(1, 0, 8, 1.0)).is_ok());
    }

    #[test]
    fn advancing_the_watermark_seals_only_passed_hours() {
        let mut acc = StreamAccumulator::new(schema(), 2);
        acc.insert(&rec(0, 0, 0, 1.0)).unwrap();
        acc.insert(&rec(0, 0, 5, 2.0)).unwrap();
        // Hours < 5 − 2 = 3 are sealed: hour 0 folded, hour 5 still open.
        assert_eq!(acc.committed_below(), 3);
        assert_eq!(acc.committed_totals().get(0, 0), 1.0);
        assert_eq!(acc.open_records(), 1);
        let out = acc.finish();
        assert_eq!(out.totals.get(0, 0), 3.0);
        assert_eq!(out.hourly_volume[5], 2.0);
    }

    #[test]
    fn fold_order_is_hour_ascending_regardless_of_arrival() {
        // Magnitudes chosen so float addition order matters: the 1.0s
        // individually vanish against 1e16 but survive when added first.
        let vals = [1.0, 1e16, 1.0, 1.0];
        let arrival = [2u32, 0, 3, 1];
        let ascending: f64 = vals.iter().fold(0.0, |s, &v| s + v);
        let arrival_sum: f64 = arrival.iter().fold(0.0, |s, &h| s + vals[h as usize]);
        assert_ne!(
            ascending.to_bits(),
            arrival_sum.to_bits(),
            "test values must be order-sensitive"
        );

        let mut acc = StreamAccumulator::new(schema(), 48);
        for &h in &arrival {
            acc.insert(&rec(0, 0, h, vals[h as usize])).unwrap();
        }
        let out = acc.finish();
        assert_eq!(out.totals.get(0, 0).to_bits(), ascending.to_bits());
    }

    #[test]
    fn invalid_records_are_rejected_before_any_state_changes() {
        let mut acc = StreamAccumulator::new(schema(), 2);
        assert_eq!(
            acc.insert(&rec(0, 3, 7, 1.0)),
            Err(QuarantineReason::UnknownService)
        );
        assert_eq!(
            acc.insert(&rec(4, 0, 7, 1.0)),
            Err(QuarantineReason::UnknownAntenna)
        );
        assert_eq!(acc.max_hour_seen(), None);
        assert_eq!(acc.open_records(), 0);
    }

    #[test]
    fn slabs_are_recycled_within_the_lateness_bound() {
        // A sparse, jumpy feed: hours advance by 0–3 per record, with
        // in-window stragglers. At most lateness + 1 slabs may exist.
        for lateness in [0u32, 1, 2, 5] {
            let mut acc = StreamAccumulator::new(schema(), lateness);
            let mut hour = 0u32;
            for k in 0..40u32 {
                hour = (hour + k % 4).min(47);
                let _ = acc.insert(&rec(k % 4, k % 3, hour, 1.0));
                let _ = acc.insert(&rec(k % 2, 0, hour.saturating_sub(lateness), 1.0));
                let slabs = acc.open.len() + acc.spare.len();
                assert!(
                    slabs as u32 <= lateness + 1,
                    "lateness {lateness}: {slabs} slabs"
                );
                assert!(acc.open.windows(2).all(|w| w[0].0 < w[1].0));
            }
        }
    }

    #[test]
    fn bucket_iterates_present_cells_in_key_order() {
        let schema = IngestSchema {
            antennas: 5,
            services: 30,
            hours: 1,
        };
        let mut b = HourBucket::new(&schema);
        let keys = [(4u32, 29u32), (0, 0), (2, 5), (2, 4), (1, 29)];
        for (n, &(a, s)) in keys.iter().enumerate() {
            b.insert(a, s, n as f64, 0.5).unwrap();
        }
        assert_eq!(
            b.insert(2, 5, 9.0, 9.0),
            Err(QuarantineReason::DuplicateKey)
        );
        assert_eq!(
            b.insert(5, 0, 1.0, 1.0),
            Err(QuarantineReason::UnknownAntenna)
        );
        assert_eq!(
            b.insert(0, 30, 1.0, 1.0),
            Err(QuarantineReason::UnknownService)
        );
        let got: Vec<(u32, u32, f64)> = b
            .iter()
            .map(|(i, dl, _)| {
                let (a, s) = b.key(i);
                (a, s, dl)
            })
            .collect();
        let mut want: Vec<(u32, u32, f64)> = keys
            .iter()
            .enumerate()
            .map(|(n, &(a, s))| (a, s, n as f64))
            .collect();
        want.sort_by_key(|&(a, s, _)| (a, s));
        assert_eq!(got, want);
        b.clear();
        assert_eq!(b.iter().count(), 0);
        assert!(b.insert(2, 5, 1.0, 1.0).is_ok());
    }

    #[test]
    fn finish_on_empty_accumulator_is_zero() {
        let out = StreamAccumulator::new(schema(), 2).finish();
        assert_eq!(out.totals.total(), 0.0);
        assert!(out.hourly_records.iter().all(|&c| c == 0));
    }
}
